(** Specializing backend: partial evaluation of the dictionary-passing
    translation.

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
    F type (checked by the session oracle), same value, never more
    beta steps on any executed path modulo the constant cost of
    hoisted dictionary construction.

    [Guided] mode is profile-guided stenciling: it behaves like
    [Stencil] but consults a hotness predicate (derived from a
    {!Fg_util.Profile}) keyed by {!instantiation_key}, and only
    stencils instantiations the predicate approves; cold
    instantiations keep dictionary passing untouched (counted as
    fallbacks).  With an empty profile it is a no-op and the output is
    the dictionary program verbatim. *)

type mode = Stencil | Hybrid | Guided

type stats = {
  st_stencils : int;  (** specialized clones created *)
  st_shared : int;
      (** call sites left on dictionary passing because their shape
          class already owns a stencil (hybrid sharing) *)
  st_fallbacks : int;
      (** ground generic calls left on dictionary passing for other
          reasons (budget, non-static dictionary arguments, shape the
          specializer does not recognize, cold under a guided
          profile) *)
  st_hoisted : int;  (** dictionary expressions hoisted to the spine *)
  st_rewritten : int;  (** call sites redirected to stencils *)
}

val zero_stats : stats

(** Did specialization change the program at all?  (If not, callers
    can reuse the dictionary backend's evaluation verbatim.) *)
val changed : stats -> bool

(** [specialize ~mode ?hot e] — returns the specialized program and
    counters.  Total: never raises on well-typed input; any
    unrecognized shape falls back to the dictionary-passing original.
    [hot] is only consulted in [Guided] mode (default: nothing is
    hot). *)
val specialize : mode:mode -> ?hot:(string -> bool) -> Ast.exp -> Ast.exp * stats

(** [instantiation_key f tys] — the profile key of a ground
    instantiation site, ["f[ty,...]"] with the types rendered by the
    System F pretty-printer.  {!observe} emits these keys and [Guided]
    mode queries its [hot] predicate with them, so profiles recorded
    on any backend transfer to guided specialization. *)
val instantiation_key : string -> Ast.ty list -> string

(** Census of ground instantiation sites: every call position that
    {!specialize} would consider a stencil candidate (unshadowed
    spine generic defined earlier, matching type-abstraction arity,
    ground type arguments), counted per {!instantiation_key} — a pure
    walk, no rewriting.  The driver records this per program when
    profile collection is on, on every backend including [dict]. *)
val observe : Ast.exp -> (string * int) list
