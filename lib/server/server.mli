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
  log : bool;  (** chatty lifecycle lines on stderr *)
}

(** Sensible defaults: one worker per recommended domain, queue of
    128, no deadline, 4 MiB frames, 10M evaluation steps, quiet. *)
val default_config : address -> config

type t

(** Bind the listener and spawn the worker domains (does not accept
    yet).  A Unix socket path is taken over only when it holds a stale
    socket (connecting is refused); when the path holds anything else,
    or the address cannot be resolved or bound, raises the FG1004
    configuration diagnostic. *)
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
