(** Abstract syntax of System FG — the language of paper Figure 11
    (System F + concepts, models, where clauses, associated types,
    same-type constraints, type aliases), plus base types, lists,
    tuples, [fix], [if], primitive constants, and the Section 6
    extensions (parameterized models, named models, member defaults). *)

open Fg_util
module F := Fg_systemf.Ast

type base = F.base = TInt | TBool | TUnit

type ty =
  | TBase of base
  | TVar of string
  | TArrow of ty list * ty  (** [fn(τ1, ..., τn) -> τ] *)
  | TTuple of ty list
  | TList of ty
  | TAssoc of string * ty list * string  (** [C<τ̄>.s] *)
  | TForall of string list * constr list * ty
      (** [forall t̄ where constrs. τ]; the where clause may be empty *)

and constr =
  | CModel of string * ty list  (** [C<σ̄>] — a model requirement *)
  | CSame of ty * ty  (** [σ == τ] — a same-type constraint *)

type lit = F.lit = LInt of int | LBool of bool | LUnit

type exp = { desc : desc; loc : Loc.t }

and desc =
  | Var of string
  | Lit of lit
  | Prim of string
  | App of exp * exp list
  | Abs of (string * ty) list * exp
  | TyAbs of string list * constr list * exp
      (** [tfun t̄ where constrs => e] *)
  | TyApp of exp * ty list
  | Let of string * exp * exp
  | Tuple of exp list
  | Nth of exp * int
  | Fix of string * ty * exp
  | If of exp * exp * exp
  | Member of string * ty list * string  (** [C<τ̄>.x] — model member *)
  | ConceptDecl of concept_decl * exp
  | ModelDecl of model_decl * exp
  | Using of string * exp  (** activate a named model *)
  | TypeAlias of string * ty * exp  (** [type t = τ in e] *)

and concept_decl = {
  c_name : string;
  c_params : string list;
  c_assoc : string list;  (** [types s̄;] requirements *)
  c_refines : (string * ty list) list;
  c_requires : (string * ty list) list;
      (** nested requirements [require C'<σ̄>;] on associated types
          (Section 6 extension) *)
  c_members : (string * ty) list;
  c_defaults : (string * exp) list;
      (** default member bodies (Section 6 extension) *)
  c_same : (ty * ty) list;  (** [same σ == τ;] requirements *)
  c_loc : Loc.t;
}

and model_decl = {
  m_name : string option;  (** a named model (Section 6 extension) *)
  m_params : string list;  (** parameterized-model binders; [] if ground *)
  m_constrs : constr list;  (** a parameterized model's context *)
  m_concept : string;
  m_args : ty list;
  m_assoc : (string * ty) list;  (** [types s = τ;] assignments *)
  m_members : (string * exp) list;
  m_loc : Loc.t;
}

(** {1 Smart constructors} *)

val mk : ?loc:Loc.t -> desc -> exp
val var : ?loc:Loc.t -> string -> exp
val lit : ?loc:Loc.t -> lit -> exp
val int : ?loc:Loc.t -> int -> exp
val bool : ?loc:Loc.t -> bool -> exp
val unit : ?loc:Loc.t -> unit -> exp
val prim : ?loc:Loc.t -> string -> exp
val app : ?loc:Loc.t -> exp -> exp list -> exp
val abs : ?loc:Loc.t -> (string * ty) list -> exp -> exp
val tyabs : ?loc:Loc.t -> string list -> constr list -> exp -> exp
val tyapp : ?loc:Loc.t -> exp -> ty list -> exp
val let_ : ?loc:Loc.t -> string -> exp -> exp -> exp
val tuple : ?loc:Loc.t -> exp list -> exp
val nth : ?loc:Loc.t -> exp -> int -> exp
val fix : ?loc:Loc.t -> string -> ty -> exp -> exp
val if_ : ?loc:Loc.t -> exp -> exp -> exp -> exp
val member : ?loc:Loc.t -> string -> ty list -> string -> exp
val concept_decl : ?loc:Loc.t -> concept_decl -> exp -> exp
val model_decl : ?loc:Loc.t -> model_decl -> exp -> exp
val using : ?loc:Loc.t -> string -> exp -> exp
val type_alias : ?loc:Loc.t -> string -> ty -> exp -> exp

(** {1 Type operations} *)

module Smap := Fg_util.Names.Smap
module Sset := Fg_util.Names.Sset

(** Free type variables. *)
val ftv : ty -> Sset.t

val ftv_constr : constr -> Sset.t

(** Concept names occurring in a type (in where clauses and in
    projections) — the paper's [CV], used by the CPT side condition. *)
val concept_names : ty -> Sset.t

val constr_concept_names : constr -> Sset.t

(** Does a [forall] occur anywhere in the type? *)
val has_forall : ty -> bool

(** [List.map] (left to right) that returns the list itself when the
    function returns every element unchanged (physically). *)
val map_shared : ('a -> 'a) -> 'a list -> 'a list

(** Capture-avoiding simultaneous type substitution; a type it does not
    change comes back as itself (physically), not as a copy. *)
val subst_ty : ty Smap.t -> ty -> ty

val subst_constr : ty Smap.t -> constr -> constr
val subst_of_list : (string * ty) list -> ty Smap.t
val subst_ty_list : (string * ty) list -> ty -> ty
val subst_constr_list : (string * ty) list -> constr -> constr

(** Syntactic equality of types, alpha for [forall]s (no same-type
    reasoning; use {!Env.ty_eq} for the full relation). *)
val ty_equal : ty -> ty -> bool

val constr_equal : constr -> constr -> bool
val ty_size : ty -> int
val constr_size : constr -> int

(** Type substitution through expressions (used by the interpreter's
    type application). *)
val subst_ty_exp : ty Smap.t -> exp -> exp

val exp_size : exp -> int

(** Structural equality of expressions ignoring locations (binders by
    name, embedded types via {!ty_equal}) — the pretty→parse round-trip
    relation used by the fuzzing and round-trip test oracles. *)
val exp_equal : exp -> exp -> bool
