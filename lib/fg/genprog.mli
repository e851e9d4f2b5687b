(** Deterministic synthetic program families for the benchmark harness,
    one per scaling dimension of DESIGN.md's experiment index (B1–B6).
    All functions return complete programs in concrete syntax. *)

(** Refinement chain of depth [n]; the deepest concept's generic
    function touches the shallowest member (longest dictionary path). *)
val refinement_chain : int -> string

(** Diamond lattice of depth [n] (two concepts per level, each refining
    both of the previous level), every concept with an associated type. *)
val refinement_diamond : int -> string

(** [n] independent concept/model pairs; lookup scans past [n-1]. *)
val many_models : int -> string

(** One generic function with [n] requirements, all used. *)
val wide_where : int -> string

(** [n] type parameters chained by same-type constraints. *)
val same_type_chain : int -> string

(** Associated types pinned along a refinement chain of length [n]. *)
val assoc_chain : int -> string

(** [n] sequential generic definitions and calls. *)
val let_chain : int -> string

(** Shared-prefix family for the incremental frontend: [decls]
    independent generic definitions and a one-call body.  Members
    differ only in declaration [edit_at] (default none), whose bound
    variable is renamed by [edit] — re-checking one member against a
    session warm from another re-checks declaration [edit_at] and every
    declaration after it. *)
val shared_prefix : ?edit_at:int -> ?edit:int -> decls:int -> unit -> string

(** Equality at [list^n int] through the parameterized [Eq<list t>]
    model: resolution builds an [n]-deep dictionary chain. *)
val param_depth : int -> string

(** One generic called at [n] distinct ground types ([int] through
    [list^(n-1) int]), [reps] times each (default 3) — the
    specializer's scaling dimension: full stenciling clones the
    generic per instantiation; the gcshape hybrid keeps one stencil
    for the whole same-layout family. *)
val instantiation_fanout : ?reps:int -> int -> string

(** [n] calls to a generic function, implicitly or explicitly
    instantiated — the inference-overhead comparison. *)
val implicit_calls : implicit:bool -> int -> string

(** Figure 5's accumulate over a list of length [n] (FG). *)
val accumulate_workload : int -> string

(** The same workload in System F with explicit operation arguments
    (Figure 3 style). *)
val accumulate_workload_systemf : int -> string

(** The same workload as monomorphic, dictionary-free System F. *)
val accumulate_workload_mono : int -> string
