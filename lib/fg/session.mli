(** The session-based compiler driver: an amortizing, observable,
    concurrent front door over the FG pipeline.

    A {!t} owns everything that one-shot driving rebuilt per program:

    - a {b compilation-unit cache} ({!Unit}): every declaration spine —
      the prelude's, each program's, each {!extend} — is split into
      units keyed by their lexical prefix, each checked at most once per
      prefix and replayed from the cache everywhere else.  The prelude
      is checked {e once} at {!of_config}; re-checking an edited program
      re-checks the edited declaration and every declaration after it
      ({!map_batch} jobs, which nothing re-checks, skip the cache);
    - a {b memoized model-resolution cache} (in {!Env}): lookups are
      keyed on (concept, argument types, scope generation), so the
      prelude-scope resolutions one program performs are free for the
      next;
    - the prelude's System F translation, {b typechecked once}: each
      program's theorem re-check resumes after it;
    - {b telemetry} ({!Fg_util.Telemetry}): per-phase wall time and
      cache counters, reported by [fgc --stats].

    Programs checked through a session are bit-for-bit identical to
    standalone runs: the fresh-name supply is rewound to its
    post-prelude position before each program, so output never depends
    on how many programs the session has already served.

    A session is single-domain; {!map_batch} verifies N programs across
    OCaml 5 domains by giving each domain its own session built from
    the same configuration, with deterministic, order-stable output. *)

open Fg_util
module F := Fg_systemf

type t

(** Everything that parameterizes a session, in one structurally
    comparable record: servers key worker sessions on a [Config.t],
    batch domains rebuild sessions from one, and every driver entry
    point ([fgc], the REPL, the fuzzer, tests) goes through
    {!of_config}.  Build one from {!Config.default} by record update,
    or from a driver's flags with {!Config.of_flags}. *)
module Config : sig
  type t = {
    resolution : Resolution.mode;
    escape_check : bool;
    prelude : string option;
        (** a declaration stack in concrete syntax (each declaration
            ending in [in], as {!Prelude.full} is written) *)
  }

  val default : t

  (** The standard prelude ({!Prelude.full}). *)
  val with_standard_prelude : t -> t

  (** The configuration a driver's flags denote: the one mapping from
      [fgc]'s flags, a served request's fields and a workspace
      document's open parameters to a {!t}.  [prelude] selects
      {!Prelude.full} and [global_models] {!Resolution.Global}. *)
  val of_flags : prelude:bool -> global_models:bool -> unit -> t
end

(** Uninhabited: nothing specializes a translation any more.  Kept,
    with {!outcome}'s [backend] and [spec] fields, only because
    [benchspine/layers.ml] builds an outcome literal that names every
    field; nothing in the compiler, its drivers or its tests reads
    them.  Delete all three when the benchmark stops naming them. *)
type spec = |

(** Everything the full pipeline produces for one program. *)
type outcome = {
  source : string;
  ast : Ast.exp;
  fg_ty : Ast.ty;  (** the program's FG type *)
  f_exp : F.Ast.exp;  (** its System F translation *)
  f_ty : F.Ast.ty;  (** the System F type of the translation *)
  theorem_holds : bool;
      (** [τ'] alpha-equal to the translation of [τ] — always true when
          this record exists, since a mismatch raises; recorded for
          reporting *)
  value : Interp.flat;  (** the program's value (first-order part) *)
  direct_steps : int;  (** beta steps taken by the direct interpreter *)
  translated_steps : int;  (** beta steps evaluating the translation *)
  backend : Backend.t;  (** always {!Backend.Dict}; see {!spec} *)
  spec : spec option;  (** always [None]; see {!spec} *)
}

(** [of_config cfg] — a new session.  The prelude (if any) is parsed
    and checked here, once, through the session's compilation-unit
    cache.  [cache] shares an existing unit cache (e.g. one per server
    worker, or one with a disk tier behind it, as [fgc run --cache-dir]
    builds) instead of creating a private memory-only one — it is a
    separate argument, not part of {!Config.t}, precisely so configs
    stay structurally comparable.  Raises {!Diag.Error} if the prelude
    itself is ill-formed. *)
val of_config : ?cache:Unit.cache -> Config.t -> t

(** Prelude images: a checked prelude as one marshalled value, so a
    process can load it instead of checking it.  [fgc] embeds one image
    per resolution mode, made from the standard prelude at build time,
    and installs them at start-up; from then on {!of_config} loads the
    installed image for every standard-prelude configuration with the
    escape check on (the default), and checks every other prelude as
    before.  A loaded session is indistinguishable from a checked one:
    same environment, frames, fresh-name position, unit chain and
    checked System F prefix, so every report, translation and
    diagnostic is byte-identical.  Its environment gets a family of its
    own, so no walk could replay the prelude's units and none join the
    session's unit cache; telemetry shows no unit-cache traffic and no
    check time for the prelude. *)
module Image : sig
  (** [make cfg] checks [cfg]'s prelude (always through the checker,
      never through an installed image) and marshals the resulting
      session state as one value without closures.  Bytes are only
      valid for the build that made them. *)
  val make : Config.t -> string

  (** [load ?cache cfg image] — the session [of_config ?cache cfg]
      would have checked, from an [image] made by this build for the
      same prelude, resolution mode and escape check. *)
  val load : ?cache:Unit.cache -> Config.t -> string -> t

  (** [install mode image] — from now on {!of_config} loads [image]
      (made by [make] from {!Config.with_standard_prelude} of
      {!Config.default} under [mode]) instead of checking the standard
      prelude under [mode].  Installing is just registering the bytes:
      nothing is unmarshalled until a session needs them. *)
  val install : Resolution.mode -> string -> unit
end

(** The session's configuration (its creation-time [Config.t]). *)
val config : t -> Config.t

(** Warm sessions keyed by configuration, each built by {!of_config}
    on first use over the table's one shared unit cache.  A server
    worker and the workspace service each keep one, so a prelude is
    checked once per distinct {!Config.t}, not once per request.
    Not thread-safe: the owner serializes access. *)
module Table : sig
  type session := t
  type t

  val create : Unit.cache -> t

  (** The table's session for a configuration, created on first use. *)
  val find : t -> Config.t -> session
end

(** [extend t decls] — a session whose scope additionally contains
    [decls] (a declaration stack), checked incrementally on top of
    [t]'s environment; [t] itself is unchanged.  This is how the REPL
    accumulates declarations without re-checking its history. *)
val extend : t -> string -> t

val extend_result : t -> string -> (t, Diag.diagnostic) result

(** {1 Per-program operations}

    All of these parse their argument, check it under the session
    environment, and raise {!Diag.Error} on failure. *)

(** Full pipeline: check, translate, verify the theorem, evaluate both
    semantics and require agreement. *)
val run : ?file:string -> ?fuel:int -> t -> string -> outcome

val run_result :
  ?file:string -> ?fuel:int -> t -> string ->
  (outcome, Diag.diagnostic) result

(** Result of a recovering run: the outcome when the whole pipeline
    succeeded, plus every diagnostic — errors and warnings, in report
    order — collected along the way. *)
type run_report = {
  outcome : outcome option;  (** [Some] iff no errors were recorded *)
  diagnostics : Diag.diagnostic list;
}

(** Full pipeline with multi-error recovery: the lexer skips bad
    characters, the parser synchronizes at declaration keywords, and
    the checker poisons failed declarations instead of aborting, so one
    invocation reports every independent error (cascades from poisoned
    bindings are suppressed).  Warnings are collected even on
    success. *)
val run_full : ?file:string -> ?fuel:int -> t -> string -> run_report

(** {!run_full} plus the raw material a workspace language service
    needs: the program's recovering parse and the position-index
    entries ({!Check.index_entry}) a cold check would record, replayed
    units' entries included.  The report is computed by the same code
    path as {!run_full}, so its rendered diagnostics are byte-identical
    to a plain run of the same source. *)
type indexed_run = {
  ix_report : run_report;
  ix_ast : Ast.exp;  (** the recovering parse the run checked *)
  ix_entries : Check.index_entry list;  (** in recording order *)
}

val run_indexed : ?file:string -> ?fuel:int -> t -> string -> indexed_run

(** Type check only; returns the program's FG type. *)
val typecheck : ?file:string -> t -> string -> Ast.ty

(** Translate only; returns the whole-program System F term (prelude
    dictionaries included). *)
val translate : ?file:string -> t -> string -> F.Ast.exp

(** Elaborate only: (type, elaborated program, translation). *)
val elaborate : ?file:string -> t -> string -> Ast.ty * Ast.exp * F.Ast.exp

(** Theorem check (Theorems 1/2) without evaluation.  Like the check in
    {!run}, the System F re-check resumes after the session's prelude
    translation, which was typechecked once when the session was
    built; the result is the full check's. *)
val verify : ?file:string -> t -> string -> Theorems.report

(** {1 Parallel batch verification} *)

(** The default domain count: the runtime's recommendation, at least 1. *)
val default_domains : unit -> int

(** [map_batch ~domains t jobs f] — run every [(name, source)] job
    through the full pipeline, fanned out over [domains] OCaml domains
    (default {!default_domains}), and return [f name result] for each
    job, in job order.  [f] runs on the domain that ran the job, as
    soon as the job ends, and only what it returns is kept: a caller
    that needs a job's value or verdict keeps that, not the job's
    source, AST and translation.  [f] must be safe to call from any
    domain.

    The calling session serves one domain; every other domain builds
    its own session from the same configuration, so no mutable checker
    state crosses domains.  Results are identical for every choice of
    [domains] (each program's fresh names are rewound per-program), and
    identical to running each job alone with {!run}.

    Each job is checked once, under its own name, and a unit's key
    includes the file, so no unit a job could insert would ever be
    read back: jobs are checked without the unit cache ({!Unit.walk}
    with [None]), and {!cache_stats} does not move, whatever tiers the
    session's cache has.

    A job that raises anything besides [Diag.Error] (a stack overflow,
    say) yields its own {!internal_error}; the other jobs are
    unaffected. *)
val map_batch :
  ?domains:int -> ?fuel:int -> t -> (string * string) list ->
  (string -> (outcome, Diag.diagnostic) result -> 'a) -> 'a list

(** [run_batch ~domains t jobs] is {!map_batch} keeping every job's
    name and whole result. *)
val run_batch :
  ?domains:int -> ?fuel:int -> t -> (string * string) list ->
  (string * (outcome, Diag.diagnostic) result) list

(** The [FG0901] internal-error diagnostic for an exception other than
    [Diag.Error] that escaped a program's run: "uncaught exception
    while running this program: ...". *)
val internal_error : exn -> Diag.diagnostic

(** {1 Observability} *)

(** Telemetry accumulated process-wide since this session was created
    (includes work done by batch domains the session spawned). *)
val stats : t -> Telemetry.snapshot

(** Unit-cache counters: hits, misses, evictions, size. *)
val cache_stats : t -> Unit.stats

(** Entries the session's own memo tier holds ({!Env.memo_entries}):
    fixed once the session is built, however many programs it checks. *)
val memo_entries : t -> int
