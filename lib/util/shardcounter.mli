(** Per-domain sharded atomic counters — the metrics spine.

    One logical counter is a small array of [Atomic.t] shards; an
    increment touches the shard picked by the current domain's id, so
    parallel domains almost always hit different cache lines and the
    hot path is one uncontended atomic add with no locks and no
    allocation.  Reads merge the shards and are racy with respect to
    concurrent increments, which is fine for monitoring — callers that
    need exact numbers read in a sequential phase.

    This is the single implementation of the sharding trick: both the
    {!Coverage} probe registry and the {!Telemetry} counters (and the
    server pool's metrics grid) are built on it.  The sorted
    association-list "map" type and its merge algebra live here too:
    coverage maps are counter maps. *)

type t
(** One sharded counter.  Cheap to bump from any domain. *)

val create : unit -> t

val incr : t -> unit
(** Add one to the current domain's shard.  Lock-free. *)

val decr : t -> unit
(** Subtract one.  The merged total stays correct even when the
    decrement lands on a different shard than the increment it undoes
    (individual shards may go negative). *)

val add : t -> int -> unit
(** Add an arbitrary delta (e.g. accumulated nanoseconds). *)

val read : t -> int
(** Merge the shards into the logical value.  Racy snapshot. *)

type map = (string * int) list
(** A counter map: association list sorted by key, every count
    positive.  All functions below maintain that invariant. *)

val merge : map -> map -> map
(** Pointwise sum. *)

val diff : map -> map -> map
(** [diff later earlier]: keys whose count grew, with the growth. *)

val distinct : map -> int
val total : map -> int
val keys : map -> string list

module Registry : sig
  (** A named set of sharded counters keyed by string.  Registration
      swaps an immutable map in with a CAS loop — rare; hits never
      touch the registry.  {!Coverage} wraps the process-wide instance
      of this. *)

  type counter = t

  type t

  val create : unit -> t

  val find : t -> string -> counter
  (** Register (or find) the counter named [key].  Thread-safe; both
      racers get the same counter. *)

  val hit : t -> string -> unit
  (** [hit r key] is [incr (find r key)]. *)

  val snapshot : t -> map
  (** Merge every counter into a sorted map; zero-count entries are
      dropped, so an untouched registry snapshots to []. *)
end
