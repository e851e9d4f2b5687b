(** Bounded request queue + worker-domain pool for the daemon.

    Each worker is an OCaml 5 domain owning a {!Handler.t} (warm
    sessions included).  The queue is strictly bounded: {!try_enqueue}
    never blocks and never buffers past the capacity — callers turn a
    full queue into an explicit overload response.  Deadlines are
    enforced at the pool: a job that expires while queued is rejected
    without running, and a job whose work completes after its deadline
    is reported as a timeout anyway (the result is discarded).

    Shutdown is a drain: once {!initiate_stop} runs (directly, from a
    signal, or via a [shutdown] request processed in FIFO order),
    nothing new is admitted, queued jobs are still served, and workers
    exit when the queue is empty. *)

open Fg_util

val now_ns : unit -> int

(** {1 Metrics} *)

type metrics

val metrics_to_json : ?extra:(string * Json.t) list -> metrics -> Json.t
val record_protocol_error : metrics -> unit
val record_connection : metrics -> unit

(** Count a response in the kind × status grid — workers do this for
    everything they serve; the server's reader threads do it for
    responses that never reach a worker (overload, shutting-down). *)
val record_outcome : metrics -> Protocol.kind -> Protocol.status -> unit

(** {1 Jobs} *)

type job = {
  req : Protocol.request;
  enqueued_ns : int;  (** {!now_ns} at admission *)
  deadline_ns : int option;  (** absolute; [None] = no deadline *)
  respond : Protocol.response -> unit;
      (** invoked exactly once, from a worker domain; must be safe to
          call after the originating connection closed *)
}

(** {1 The pool} *)

type t

(** [stats_json] renders the [stats] payload from the live metrics
    (the server adds its own config fields via [?extra]). *)
val create :
  ?fuel:int -> capacity:int -> stats_json:(metrics -> Json.t) -> unit -> t

val metrics : t -> metrics
val stats_payload : t -> string

(** Spawn the worker domains. *)
val start : workers:int -> t -> unit

(** Non-blocking admission. *)
val try_enqueue : t -> job -> [ `Ok | `Overload | `Shutting_down ]

(** Blocking admission (used for shutdown sentinels, which must not be
    dropped just because the queue is momentarily full); [false] if
    the pool began stopping while waiting. *)
val enqueue_wait : t -> job -> bool

val stopping : t -> bool

(** Begin the drain (idempotent). *)
val initiate_stop : t -> unit

(** Wait for every worker to finish the drain and exit. *)
val join : t -> unit
