(** The System FG type checker and its type-directed translation to
    System F (paper Figures 9 and 13, presented as one judgment
    [Γ ⊢ e : τ ⇒ f]), extended with the Section 6 features:
    parameterized models, implicit instantiation, and member defaults. *)

open Ast
module F := Fg_systemf.Ast

(** Embed a System F type into FG (used for primitive type schemes). *)
val ty_of_f : F.ty -> ty

(** The main judgment on a closed program: its FG type, its ELABORATED
    form (implicit instantiations made explicit — the term the direct
    interpreter runs), and its System F translation.
    [escape_check] (default true) enforces the CPT side condition
    [c ∉ CV(τ)]; disable it only to inspect generic values whose types
    mention locally declared concepts. *)
val elaborate :
  ?resolution:Resolution.mode -> ?escape_check:bool -> exp ->
  ty * exp * F.exp

(** Type check and translate a closed FG program. *)
val check_program :
  ?resolution:Resolution.mode -> ?escape_check:bool -> exp -> ty * F.exp

(** Type check only. *)
val typecheck :
  ?resolution:Resolution.mode -> ?escape_check:bool -> exp -> ty

(** Translate only. *)
val translate :
  ?resolution:Resolution.mode -> ?escape_check:bool -> exp -> F.exp

val check_result :
  ?resolution:Resolution.mode -> ?escape_check:bool -> exp ->
  (ty * F.exp, Fg_util.Diag.diagnostic) result

(** The judgment under an explicit environment (library extension
    point; the entry points above use [Env.create]). *)
val check : Env.t -> exp -> ty * exp * F.exp

(** What the workspace position index taps during checking: the
    inferred type of every (non-dummy-span) expression, and each
    successful model resolution — at a member access or in an
    instantiated where clause — with the concept and its ground
    arguments. *)
type index_entry =
  | Itype of Fg_util.Loc.t * ty
  | Imodel of Fg_util.Loc.t * string * ty list

(** Run [thunk] with [f] installed as this domain's index sink (the
    previous sink is restored on exit).  With no sink installed —
    the default on every domain — recording is a no-op, so checking
    results and cached units are byte-identical either way. *)
val with_index_sink : (index_entry -> unit) -> (unit -> 'a) -> 'a

(** This domain's installed index sink, if any. *)
val index_sink : unit -> (index_entry -> unit) option

(** What checking one declaration leaves behind for its body, as plain
    data (no functions, so checked units and a checked prelude marshal
    without [Marshal.Closures]): one case per declaration form. *)
type frame =
  | Flet of {
      loc : Fg_util.Loc.t;
      x : string;
      ty : ty;
      elab : exp;
      f : F.exp;
    }
      (** the bound variable, its type, and the right-hand side's
          elaboration and translation *)
  | Fconcept of {
      loc : Fg_util.Loc.t;
      d : concept_decl;
      escape_check : bool;
    }
  | Fmodel of {
      loc : Fg_util.Loc.t;
      d : model_decl;  (** members elaborated *)
      entry : Env.model_entry;
      dict : F.exp;  (** the dictionary's right-hand side *)
    }
  | Fusing of { loc : Fg_util.Loc.t; m : string; entry : Env.model_entry }
  | Falias of { loc : Fg_util.Loc.t; t : string; ty : ty; env : Env.t }
      (** [env] is the alias's own environment: its type is translated
          after the body, when the frame is wrapped *)

(** One declaration node: [Some (frame, body)] when the expression is a
    declaration form (let / concept / model / using / type alias) with
    body [body].  All of the declaration's own work — well-formedness,
    member checking, dictionary construction, fresh-name generation —
    happens eagerly in this call.  Raises [Diag.Error] when the
    declaration itself is ill-typed; returns [None] on
    non-declarations. *)
val check_decl_parts : Env.t -> exp -> (frame * exp) option

(** [extend env frame] adds the declaration's bindings to [env]: the
    environment the declaration was checked under, or any environment
    of the same family binding the same dependencies (this is what lets
    {!Unit} replay a cached declaration without re-checking it). *)
val extend : Env.t -> frame -> Env.t

(** [wrap frame body] turns the body's checked triple into the
    declaration's (and raises the declaration's checks that need the
    body's type, such as a concept escaping its scope). *)
val wrap : frame -> ty * exp * F.exp -> ty * exp * F.exp

(** The names a failed declaration would have bound (an unnamed model
    binds none, so its concept stands in) — recovery poisons these. *)
val decl_poison : exp -> string list

(** The body of a declaration form, if the expression is one. *)
val decl_body : exp -> exp option

(** Is this diagnostic a likely cascade of a failure that poisoned one
    of the given names?  (Matches quoted names, failed resolutions of
    poisoned concepts and "concept C ..." errors in the message.) *)
val is_cascade : Fg_util.Names.Sset.t -> Fg_util.Diag.diagnostic -> bool
