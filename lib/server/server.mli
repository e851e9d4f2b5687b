(** The [fgc serve] daemon: a Unix-socket or TCP accept loop feeding a
    bounded queue of requests served by worker domains with warm
    sessions.

    Production behaviors, all on by default:

    - {b backpressure}: the queue never grows past [max_queue]; a full
      queue yields an immediate [overload] response, never unbounded
      buffering;
    - {b deadlines}: [request_timeout_ms] (or the request's own
      ["timeout_ms"]) bounds queue wait + service; expired requests get
      a structured [timeout] response (code FG0801), and [fuel] bounds
      the evaluators so a divergent program cannot pin a worker;
    - {b graceful shutdown}: a [shutdown] request or {!signal_stop}
      stops admission, serves everything already accepted, closes
      connections, and joins every worker and reader — no leaks;
    - {b observability}: a [stats] request returns request counts by
      kind and status, queue depth, and p50/p95/p99 latency histograms
      ({!Fg_util.Telemetry.Histogram}). *)

type address = Protocol.address

type config = {
  address : address;
  workers : int;  (** worker domains, each with its own warm sessions *)
  max_queue : int;  (** bounded queue capacity *)
  request_timeout_ms : int option;  (** default per-request deadline *)
  max_frame : int;  (** largest accepted wire frame, bytes *)
  fuel : int option;  (** evaluator step bound per served run *)
  cache_dir : string option;
      (** root of the daemon's shared on-disk unit store
          ({!Fg_core.Diskcache}), consulted by every worker behind its
          memory cache; [None] (the default) runs memory-only *)
  cache_max_bytes : int option;  (** disk-store size bound *)
  profile : Fg_util.Profile.t option;
      (** the daemon's default workload profile ([fgc serve
          --profile]): consulted by [guided]-backend sessions whose
          request ships no profile of its own, and by startup
          auto-sizing — profiled cache pressure picks the per-worker
          unit-cache capacity, profiled request volume shrinks an
          over-provisioned worker pool
          ({!Fg_util.Profile.auto_size}).  What changed is reported
          under ["auto_sizing"] in the [stats] payload. *)
  profile_out : string option;
      (** write the profile collected over this daemon's lifetime
          (instantiation/resolution counts, request and backend mixes,
          unit-cache pressure) here at drain, in canonical JSON;
          setting it turns collection on *)
  log : bool;  (** chatty lifecycle lines on stderr *)
}

(** Sensible defaults: one worker per recommended domain, queue of
    128, no deadline, 4 MiB frames, 10M evaluation steps, no disk
    store, quiet. *)
val default_config : address -> config

type t

(** Bind the listener and spawn the worker domains (does not accept
    yet).  Raises [Unix.Unix_error] if the address is unusable. *)
val create : config -> t

(** The bound address — for TCP with port 0, the OS-chosen port. *)
val bound_address : t -> address

(** Accept and serve until a [shutdown] request or {!signal_stop},
    then drain and tear everything down before returning. *)
val run : t -> unit

(** [create] + [run]. *)
val serve : config -> unit

(** Async-signal-safe stop request: only flips an atomic flag (no
    locks), so it is what SIGTERM/SIGINT handlers should call; the
    accept loop notices within its 100ms poll and begins the drain. *)
val signal_stop : t -> unit

(** Begin a drain from a normal (non-signal) context — tests use this
    as an in-process SIGTERM. *)
val request_shutdown : t -> unit
