(** The translation backend: the paper's dictionary passing (§6),
    the only one there is.

    Kept only because [benchspine/layers.ml] compiles against it (its
    outcome literal and its [Workspace.open_doc ~backend] call name
    {!Dict}); nothing in the compiler, its drivers or its tests reads
    it.  Delete it when the benchmark stops naming it. *)

type t = Dict
