(** Lightweight, domain-safe instrumentation for the compiler driver.

    A global set of atomic counters and per-phase wall-time
    accumulators, cheap enough to leave always-on: the library's hot
    paths ({!Fg_core.Equality} closure rebuilds, model resolution in
    {!Fg_core.Env}, the session resolution cache) bump counters, the
    driver ({!Fg_core.Session}) wraps each pipeline phase in {!time}.
    Counters are process-global and monotone; clients take {!snapshot}s
    and {!diff} them to attribute work to a region (a program, a batch,
    a bench run).  All updates go through [Atomic], so parallel batch
    domains can record into the same counters without tearing. *)

(** Concurrent latency histograms: log-linear buckets (4 linear
    sub-buckets per power-of-two octave), so any recorded value is
    reconstructed to within 25%.  All state is [Atomic], so multiple
    domains can {!Histogram.observe} into one histogram without locks;
    reads are racy snapshots, which is what monitoring wants.  The
    server records request latencies (in nanoseconds) here and reports
    p50/p95/p99 through the [stats] endpoint. *)
module Histogram : sig
  type t

  val create : unit -> t

  (** Record one non-negative sample (negatives clamp to 0). *)
  val observe : t -> int -> unit

  val count : t -> int
  val sum : t -> int
  val max_value : t -> int
  val mean : t -> float

  (** [percentile t p] for [p] in [0,100] — the upper bound of the
      bucket holding the rank-[⌈p/100·count⌉] sample (conservative,
      clamped to the exact maximum); 0 when empty. *)
  val percentile : t -> float -> int

  val reset : t -> unit

  (** [merge a b] — a fresh histogram holding both sides' samples
      (bucket-wise sum; exact, since bucket boundaries are fixed).
      Reads each side racily, like every snapshot in this module; the
      multi-worker / fleet merge operation. *)
  val merge : t -> t -> t

  (** [{"count", "max_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}]
      (keys sorted) — samples are assumed to be nanoseconds. *)
  val to_json : t -> Json.t
end

(** The driver phases that are individually timed. *)
type phase =
  | Parse  (** FG source to AST *)
  | Check  (** type checking + elaboration + translation *)
  | Verify  (** System F re-check and theorem comparison *)
  | Eval  (** both evaluations (direct and translated) *)

(** {1 Time source}

    The only clock available is the wall clock, which NTP can step
    backwards; every duration in the tree is computed from
    {!now_ns}, which never decreases. *)

(** [monotonize ns] — [ns] pinned to the largest value any caller has
    ever passed (process-global, domain-safe).  A backwards wall-clock
    step becomes a plateau, never a negative delta. *)
val monotonize : int -> int

(** Monotone non-decreasing nanosecond timestamps ([monotonize] over
    the wall clock).  Deltas between two calls are always ≥ 0. *)
val now_ns : unit -> int

(** Time a phase: runs the thunk, adds the elapsed wall time to the
    phase's accumulator (also on exceptions), and returns the result. *)
val time : phase -> (unit -> 'a) -> 'a

(** {1 Counter bump points} *)

val record_cc_rebuild : unit -> unit
(** A congruence closure was (re)built from its assumption list. *)

val record_model_lookup : unit -> unit
(** [Env.lookup_model] was asked to resolve a concept requirement. *)

val record_resolve_hit : unit -> unit
(** The memoized model-resolution cache answered a lookup. *)

val record_resolve_miss : unit -> unit
(** The memoized model-resolution cache had to compute a lookup. *)

val record_prelude_build : unit -> unit
(** A session parsed and checked a prelude from scratch. *)

val record_prelude_reuse : unit -> unit
(** A program was checked against an already-built session prelude. *)

val record_program : unit -> unit
(** One program went through a driver entry point. *)

val record_fuzz_generated : unit -> unit
(** The fuzzer produced one candidate program. *)

val record_fuzz_discarded : unit -> unit
(** The fuzzer rejected a candidate mid-generation (rejection
    sampling; the slot was re-rolled). *)

val record_fuzz_shrunk : unit -> unit
(** The shrinker committed one successful shrink step. *)

val record_unit_hit : unit -> unit
(** A compilation-unit cache served a declaration from cache. *)

val record_unit_miss : unit -> unit
(** A compilation-unit cache had to check a declaration. *)

val record_unit_eviction : unit -> unit
(** A bounded compilation-unit cache evicted its least recently used
    entry to make room. *)

val record_disk_hit : unit -> unit
(** The on-disk unit store served a lookup. *)

val record_disk_miss : unit -> unit
(** The on-disk unit store was consulted and had no (valid) entry. *)

val record_corrupt_entry : unit -> unit
(** A persisted entry failed validation (truncated, corrupt, or from a
    different store format / compiler build) and was treated as a
    miss. *)

(** {1 Snapshots} *)

type snapshot = {
  parse_ns : int;  (** accumulated wall time per phase, nanoseconds *)
  check_ns : int;
  verify_ns : int;
  eval_ns : int;
  cc_rebuilds : int;
  model_lookups : int;
  resolve_hits : int;
  resolve_misses : int;
  prelude_builds : int;
  prelude_reuses : int;
  programs : int;
  fuzz_generated : int;
  fuzz_discarded : int;
  fuzz_shrunk : int;
  unit_hits : int;
  unit_misses : int;
  unit_evictions : int;
  disk_hits : int;
  disk_misses : int;
  corrupt_entries : int;
}

val snapshot : unit -> snapshot

(** [diff later earlier] — the work done between two snapshots. *)
val diff : snapshot -> snapshot -> snapshot

val pp : snapshot Fmt.t
