(** Dependency analysis over declaration spines.

    A program (or prelude, or REPL history) is a spine of declarations
    followed by a body.  {!Unit} treats each declaration as a
    compilation unit; this module computes, for each unit, which
    earlier units its checking can observe — the inputs to the unit's
    content-hash chain.  The analysis is purely syntactic and
    deliberately over-approximate (extra edges only reduce cache reuse;
    a missing edge would be unsound), covering name references, binder
    shadowing, the transitive concept-interest closure that model
    resolution can consult, and — under the Global resolution ablation —
    the order-dependent overlap check across all model declarations. *)

open Ast
module Sset := Fg_util.Names.Sset

(** What one declaration contributes and consumes. *)
type info = {
  i_provides : Sset.t;
      (** names the declaration binds for the rest of the spine *)
  i_refs : Sset.t;
      (** every identifier occurring in the declaration (referenced or
          bound — shadowing is observable) *)
  i_concepts : Sset.t;  (** concept names mentioned *)
  i_model_of : Sset.t;
      (** concepts whose model scope this declaration extends directly
          (an unnamed model declaration; [using] is resolved during
          {!extend}) *)
  i_named : (string * string) list;
      (** named models declared: name, concept *)
  i_using : string option;  (** named model activated by [using] *)
  i_declares_model : bool;
      (** any model declaration, named or not — these couple under the
          Global ablation's program-wide overlap check *)
}

(** Facts about one declaration node (the body is not examined — it is
    the rest of the spine).  Total: non-declarations yield empty info. *)
val info_of_decl : exp -> info

(** Is this expression a declaration form? *)
val is_decl : exp -> bool

(** The analysis state after a spine prefix: everything the units
    after it can observe of it.  Immutable, so one prefix's state (a
    session's prelude) serves every spine that continues it. *)
type t

(** The state before any unit.  [global] enables the Global ablation's
    all-models coupling. *)
val empty : global:bool -> t

(** Whether the state was built for the Global ablation. *)
val global : t -> bool

(** [extend g infos] — analyse the units [infos], given in spine order,
    as the continuation of the prefix [g] describes.  Returns the state
    after them and, for each, its dependency edges: [deps.(i)] lists
    the spine indices (counted from the start of the whole spine,
    prefix included) whose checked results the unit's checking can
    observe, in ascending order.  Extending at any split point gives
    the same edges as analysing the whole spine from {!empty}. *)
val extend : t -> info array -> t * int list array
