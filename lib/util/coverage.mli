(** Process-wide decision-point coverage map.

    The coverage-guided fuzzer ({!Fg_core.Fuzz}) needs to know, cheaply
    and from any domain, which checker/resolution/recovery decision
    points a program exercised.  This module is the instrument: a
    registry of named probes, each backed by per-domain sharded
    counters ([Atomic.t] per shard, merged on read — the same
    contention-avoidance trick as {!Telemetry}), so the hot path is one
    atomic increment with no locks and no allocation.

    Probe keys are stable strings ("check.app.implicit",
    "resolve.found.ground", "diag.FG0402", ...) so coverage maps are
    comparable across processes and serializable onto the wire — the
    fleet-merge protocol and the on-disk corpus both depend on two
    builds agreeing about what a key means.

    Reads ([snapshot]) are racy with respect to concurrent increments,
    which is fine for monitoring; the fuzzer's determinism comes from
    only measuring in a sequential phase (see fuzz.ml). *)

type probe
(** A registered decision point.  Cheap to hit, never unregistered. *)

val probe : string -> probe
(** [probe key] registers (or finds) the probe named [key].
    Thread-safe; both racers get the same probe.  Intended for
    module-initialization time: [let p = Coverage.probe "check.var"]. *)

val hit : probe -> unit
(** Record one firing of the decision point.  Lock-free. *)

val hit_key : string -> unit
(** [hit_key key] is [hit (probe key)] — for dynamically built keys
    (e.g. ["diag." ^ code]).  Pays a registry lookup; prefer a static
    {!probe} where the key is a literal. *)

type map = (string * int) list
(** A coverage map: association list sorted by key, every count
    positive.  All functions below maintain that invariant. *)

val snapshot : unit -> map
(** Merge every probe's shards into a map.  Zero-count probes are
    dropped, so an empty process snapshots to []. *)

val diff : map -> map -> map
(** [diff later earlier]: the coverage added between two snapshots —
    keys whose count grew, with the growth as the count. *)

val merge : map -> map -> map
(** Pointwise sum; the fleet-merge operation. *)

val distinct : map -> int
(** Number of distinct decision points hit (the guided fuzzer's
    novelty metric). *)

val total : map -> int
(** Sum of all counts. *)

val keys : map -> string list
(** The sorted key set. *)

val to_text : map -> string
(** Stable serialization: one ["key\tcount\n"] line per entry, sorted
    by key.  Byte-identical for equal maps; round-trips with
    {!of_text}. *)

val of_text : string -> map
(** Inverse of {!to_text}.  Unparseable lines are ignored; the result
    is re-sorted and re-merged, so any text input yields a valid map. *)

val to_json : map -> Json.t
(** [{"key": count, ...}] with keys in sorted order. *)

val of_json : Json.t -> map
(** Inverse of {!to_json}; non-object / non-int fields are ignored. *)
