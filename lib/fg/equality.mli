(** Type equality for System FG: the relation [Γ ⊢ σ = τ] (Section 5.1).

    The congruence generated by the same-type assumptions in scope,
    decided by congruence closure.  The interface is persistent:
    {!assume} returns a new context; the closure is rebuilt lazily per
    distinct context and cached.

    {!repr} returns the canonical member of a type's equivalence class —
    the translation emits this representative for every member of a
    class.  Preference order: a fully ground type, then a plain type
    variable (earliest-seen first, which picks [elt1] over [elt2] in the
    paper's merge example), then any assoc-free type, then
    associated-type projections.

    Known, documented limitation: [forall] types compare up to alpha as
    atoms; equalities do not propagate into quantified bodies (the
    paper's constraints only relate monotypes). *)

type t

(** A fresh context with no assumptions.  Queries mutate the context's
    cached closure and closures are single-domain, so each environment
    family must start from its own [empty ()]. *)
val empty : unit -> t

(** Extend with one assumed equality (persistent). *)
val assume : t -> Ast.ty -> Ast.ty -> t

val assume_all : t -> (Ast.ty * Ast.ty) list -> t

(** The assumptions, oldest first. *)
val assumptions : t -> (Ast.ty * Ast.ty) list

(** Does [a = b] follow from the assumptions (by congruence)? *)
val equal : t -> Ast.ty -> Ast.ty -> bool

(** Canonical representative of the type's class. *)
val repr : t -> Ast.ty -> Ast.ty

(** Distinct classes among interned terms (stats/benchmarks). *)
val class_count : t -> int
