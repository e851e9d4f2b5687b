(** Typing environments for System FG — the paper's four-part Γ
    (term-variable types, type variables, concepts, models) extended
    with type equalities (Section 5) — plus model resolution, including
    the parameterized-model extension. *)

open Ast
module Smap := Fg_util.Names.Smap

type model_entry = {
  me_concept : string;
  me_params : string list;
      (** binders of a parameterized model; empty for ground models *)
  me_constrs : constr list;  (** a parameterized model's context *)
  me_args : ty list;  (** modeled types; patterns when parameterized *)
  me_dict : string;  (** dictionary variable in the System F output *)
  me_path : int list;  (** projection path to this model's dictionary *)
  me_assoc : ty Smap.t;  (** associated-type assignments *)
  me_proxy : bool;  (** true for where-clause proxies *)
}

(** A successful lookup: the entry plus, for parameterized models, the
    matching substitution for its parameters. *)
type found_model = { fm_entry : model_entry; fm_subst : (string * ty) list }

type t = {
  vars : ty Smap.t;
  tyvars : Fg_util.Names.Sset.t;
  concepts : concept_decl Smap.t;
  models : model_entry list;  (** newest first; lookup order = shadowing *)
  named_models : model_entry Smap.t;
      (** named models (Section 6): declared but only active under
          [using] *)
  eq : Equality.t;
  gensym : Fg_util.Gensym.t;
  resolution : Resolution.mode;
  escape_check : bool;
      (** enforce the CPT side condition [c ∉ CV(τ)]; on by default *)
  global_models : (string * ty list) list ref;
      (** every model ever declared — the Global ablation's overlap set *)
  scope_gen : int;
      (** names this environment's (models, eq) pair; bumped by every
          extension that can change what {!lookup_model} sees *)
  gen_supply : int ref;  (** shared, monotone generation supply *)
  resolve_cache : (int * string * ty list, found_model option) Hashtbl.t;
      (** memoized model resolution keyed on (scope generation,
          concept, argument types); shared by all environments derived
          from one {!create} *)
  diag : Fg_util.Diag.engine ref;
      (** warning sink shared by all environments derived from one
          {!create}; recovering drivers swap in their own engine for
          the duration of a run *)
  family : int;
      (** uniquely names the {!create} call this environment derives
          from (or the {!with_fresh_family} call); cached compilation
          units may hold environments and are only replayable under the
          same family *)
}

val create : ?resolution:Resolution.mode -> ?escape_check:bool -> unit -> t

(** The same environment under a family no other environment in this
    process has: how an environment unmarshalled from another process
    (whose families were drawn from that process's supply) joins this
    one. *)
val with_fresh_family : t -> t

(** {1 Extension} *)

val bind_var : t -> string -> ty -> t
val bind_tyvars : t -> string list -> t
val bind_concept : t -> concept_decl -> t
val bind_model : t -> model_entry -> t
val bind_named_model : t -> string -> model_entry -> t
val lookup_named_model : t -> string -> model_entry option

(** Extend the equality context (persistent). *)
val assume : t -> ty -> ty -> t

val assume_all : t -> (ty * ty) list -> t

(** {1 Lookup} *)

val lookup_var : t -> string -> ty option
val tyvar_in_scope : t -> string -> bool
val lookup_concept : t -> string -> concept_decl option
val lookup_concept_exn : ?loc:Fg_util.Loc.t -> t -> string -> concept_decl

(** Names in scope, for nearest-name suggestions. *)
val concept_names : t -> string list

val var_names : t -> string list

(** Normalize a type by resolving associated-type projections through
    the models in scope (parameterized models are schematic, so their
    projections are resolved here by rewriting rather than by equations
    in the congruence closure).  Depth-fused. *)
val normalize : ?loc:Fg_util.Loc.t -> ?depth:int -> t -> ty -> ty

(** Find the innermost model of [c<args>]: ground models and proxies
    match up to the equality relation; parameterized models match by
    one-way pattern matching with their context discharged recursively.
    Innermost-first search implements lexical shadowing. *)
val lookup_model :
  ?loc:Fg_util.Loc.t -> ?depth:int -> t -> string -> ty list ->
  found_model option

(** All models in scope for a concept (diagnostics). *)
val models_of_concept : t -> string -> model_entry list

(** Candidate-model notes for a failed resolution of concept [c]. *)
val no_model_notes : t -> string -> Fg_util.Diag.note list

(** Type equality / representatives after {!normalize} — the operations
    the checker uses everywhere. *)
val ty_eq : ?loc:Fg_util.Loc.t -> t -> ty -> ty -> bool
val ty_repr : ?loc:Fg_util.Loc.t -> t -> ty -> ty

(** Fresh name from the environment's shared supply. *)
val fresh : t -> string -> string
