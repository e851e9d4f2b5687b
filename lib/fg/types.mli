(** Type-level machinery of System FG: well-formedness, where-clause
    processing, member/dictionary layout, and translation of FG types
    to System F types (the paper's [ba]/[b]/[bw]/[bm] functions and the
    [Γ ⊢ τ ⇒ τ'] judgment of Figures 8 and 12). *)

open Ast
module F := Fg_systemf.Ast

(** The (purely syntactic) plan of a where clause: type abstraction and
    type application must agree on the number and order of the extra
    type parameters (one per associated type, with diamond dedup) and
    dictionary parameters (one per top-level requirement). *)
type plan = Env.plan = {
  p_slots : (string * (string * ty list * string)) list;
      (** fresh type-parameter name -> the projection [C<τ̄>.s] it
          stands for, in binder order *)
  p_dicts : (string * (string * ty list)) list;
      (** dictionary variable -> top-level requirement *)
}

val no_requirements : plan -> bool

val arity_check :
  ?loc:Fg_util.Loc.t -> string -> string -> expected:int -> got:int -> unit

(** A concept instantiation with what the queries below derive from the
    refinement lattice, memoized per concept table and [(c, τ̄)] in the
    environment's memo. *)
val instance : ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> Env.instance

(** [ba(c, τ̄)]: every associated-type name visible in the concept (own
    and transitively refined), mapped to its qualified projection. *)
val assoc_scope :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> (string * ty) list

(** The substitution applied to a concept's member types on
    instantiation: parameters to arguments, associated names to
    qualified projections. *)
val instantiation_subst :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> (string * ty) list

(** Direct refinements of [c<args>], instantiated. *)
val refinements :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> (string * ty list) list

(** Nested requirements [require C'<σ̄>;], instantiated (Section 6). *)
val requires :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> (string * ty list) list

(** The concept's same-type requirements, instantiated. *)
val same_requirements :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> (ty * ty) list

(** [b(c, τ̄, n̄, Γ)]: find a member in the concept or (depth-first) in
    what it refines; returns its instantiated type and the projection
    path into the dictionary (Figure 7 layout: refined dictionaries
    first, then own members in declaration order). *)
val member_lookup :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> string ->
  (ty * int list) option

(** All reachable members with types and paths; own members shadow. *)
val all_members :
  ?loc:Fg_util.Loc.t -> Env.t -> string * ty list ->
  (string * ty * int list) list

(** Well-formedness of types (Figures 8/12), including the TYASC rule:
    an associated-type projection needs a model in scope. *)
val wf_ty : ?loc:Fg_util.Loc.t -> Env.t -> ty -> unit

(** [bw]/[bm]: process a where clause in order — well-formedness,
    proxy models (with refinement closure and diamond dedup), fresh
    associated-type parameters with their equations, and the concepts'
    own same-type requirements.  Builds no dictionary type unless
    skipping it would shift later fresh names. *)
val process_where :
  ?loc:Fg_util.Loc.t -> Env.t -> string list -> constr list -> Env.t * plan

(** {!process_where} for the callers whose translation keeps the
    requirements' dictionary types (a type abstraction, a
    parameterized model, a translated [forall]): also returns them, in
    [p_dicts] order, as one DAG that shares each distinct refined
    dictionary. *)
val process_where_dicts :
  ?loc:Fg_util.Loc.t -> Env.t -> string list -> constr list ->
  Env.t * plan * F.ty list

(** The dictionary type δ for a model of [c<args>] (Figure 7 layout). *)
val dict_type : ?loc:Fg_util.Loc.t -> Env.t -> string * ty list -> F.ty

(** [Γ ⊢ τ ⇒ τ']: representative first, then structural; [forall]s gain
    associated-type and dictionary parameters per their where clause. *)
val translate_ty : ?loc:Fg_util.Loc.t -> Env.t -> ty -> F.ty

(** The extra System F type arguments for an instantiation: the
    representative of each slot's projection under the substitution. *)
val plan_slot_actuals :
  ?loc:Fg_util.Loc.t -> Env.t -> subst:(string * ty) list -> plan ->
  F.ty list

(** The System F dictionary expression for a resolved model: the
    dictionary variable (projected by its path) for ground models; for
    parameterized models, the polymorphic dictionary function applied at
    the matched types and to the recursively-built context
    dictionaries. *)
val model_dict_exp : ?loc:Fg_util.Loc.t -> Env.t -> Env.found_model -> F.exp

(** Dictionary arguments for an instantiation: one resolved-model
    dictionary expression per top-level requirement. *)
val plan_dict_actuals :
  ?loc:Fg_util.Loc.t -> Env.t -> subst:(string * ty) list -> plan ->
  F.exp list
