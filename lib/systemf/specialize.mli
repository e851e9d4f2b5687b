(** Specializer: partial evaluation of the dictionary-passing
    translation.

    No compiler path runs it: dictionary passing is the only backend.
    The module is kept only because [benchspine/layers.ml] compiles
    against it (it times [specialize ~mode], [changed], {!Stencil} and
    {!Hybrid} as per-layer spans); [test/test_specialize.ml] keeps its
    contract tested meanwhile.  Delete both when the benchmark stops
    naming it.

    [specialize] walks the top-level [let] spine of a translated
    program and, for every ground instantiation of a generic binding
    ([f\[tys\](dicts)] where the types are closed and the dictionary
    arguments are spine-level values), clones the binding with the type
    arguments substituted and the dictionary parameters replaced by the
    resolved model witnesses — a stencil, in the Go generics sense.
    Call sites are rewritten to refer to the stencil directly, deleting
    the [TyApp] and dictionary-application beta steps; dictionary
    projections through statically known tuples reduce to the member
    witnesses.  The original polymorphic bindings are kept (top-level
    [let]s cost no evaluation steps), so any call the specializer
    cannot or chooses not to stencil falls back to dictionary passing
    unchanged.

    [Hybrid] mode adds gcshape-style sharing: instantiations whose
    instantiated dictionary parameter types have the same layout
    (same tuple structure and member arities — element types of lists
    and function parameters erased, as in Go's gcshape stenciling)
    share one stencil.  The first instantiation of each (binding,
    shape) class is stenciled; later same-shape instantiations keep
    their dictionary-passing call, so each class pays code size once.

    The output is observationally equivalent to the input: same System
    F type (checked by [test/test_specialize.ml]), same value, never more
    beta steps on any executed path modulo the constant cost of
    hoisted dictionary construction. *)

type mode = Stencil | Hybrid

type stats = {
  st_stencils : int;  (** specialized clones created *)
  st_shared : int;
      (** call sites left on dictionary passing because their shape
          class already owns a stencil (hybrid sharing) *)
  st_fallbacks : int;
      (** ground generic calls left on dictionary passing for other
          reasons (budget, non-static dictionary arguments, shape the
          specializer does not recognize) *)
  st_hoisted : int;  (** dictionary expressions hoisted to the spine *)
  st_rewritten : int;  (** call sites redirected to stencils *)
}

val zero_stats : stats

(** Did specialization change the program at all?  (If not, callers
    can reuse the dictionary backend's evaluation verbatim.) *)
val changed : stats -> bool

(** [specialize ~mode e] — returns the specialized program and
    counters.  Total: never raises on well-typed input; any
    unrecognized shape falls back to the dictionary-passing original. *)
val specialize : mode:mode -> Ast.exp -> Ast.exp * stats
