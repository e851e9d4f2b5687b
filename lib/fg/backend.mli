(** The translation backends a driver can select.

    Every backend produces System F from the same dictionary-passing
    translation (paper §6); they differ in how much of the dictionary
    machinery survives to run time:

    - {!Dict} — the paper's translation as-is: generics stay
      polymorphic, every call passes dictionaries.
    - {!Stencil} — full stenciling: each ground instantiation of a
      generic is cloned with its types and dictionary witnesses baked
      in (C++-template-style monomorphization, bounded by a budget).
    - {!Hybrid} — gcshape stenciling: instantiations whose dictionary
      layouts agree share one stencil class; the first member of each
      class is cloned, later members keep dictionary passing with
      their dictionaries hoisted and built once.

    All backends are observationally equivalent; the specializing
    backends are re-checked in System F and evaluated against the
    dictionary semantics by the session oracle. *)

type t = Dict | Stencil | Hybrid

val all : t list

(** ["dict"], ["stencil"], ["hybrid"] — the CLI / wire spelling. *)
val to_string : t -> string

val of_string : string -> t option

(** Parse a CLI / wire spelling; unknown names raise the stable
    configuration diagnostic [FG1001] rather than an exception. *)
val of_string_exn : ?loc:Fg_util.Loc.t -> string -> t

(** The specializer mode behind a backend; [None] for {!Dict}. *)
val specialize_mode : t -> Fg_systemf.Specialize.mode option
