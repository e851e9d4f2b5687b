(** Request execution against warm sessions.  One handler lives inside
    one worker domain and lazily creates (then keeps warm) a session
    per distinct {!Fg_core.Session.Config.t} a request denotes
    (prelude × resolution mode × backend), so a worker pays the
    prelude check once, not once per request.

    [run] payloads are rendered by {!Fg_core.Jsonview.json_of_run_report}
    — the same code path as one-shot [fgc run --format=json] — so a
    served response is byte-identical to a one-shot run. *)

type t

(** [fuel] bounds both evaluators of every served [run] request, so a
    divergent program cannot pin a worker forever (it reports the
    FG0601 fuel diagnostic instead).

    [disk] attaches the daemon's shared on-disk unit store behind this
    worker's memory cache.

    [unit_cache_capacity] bounds this worker's compilation-unit cache
    (absent = {!Fg_core.Unit.default_capacity}); the server supplies
    it when profile-driven auto-sizing picked a different bound.
    [profile] is the server's default workload profile, consulted by
    [guided]-backend sessions whose request ships no profile of its
    own. *)
val create :
  ?fuel:int -> ?disk:Fg_core.Diskcache.t -> ?unit_cache_capacity:int ->
  ?profile:Fg_util.Profile.t -> unit -> t

(** Eagerly build the standard-prelude session (workers call this at
    startup so the first request doesn't pay the prelude check). *)
val warm : t -> unit

(** Counters of this worker's compilation-unit cache (shared by all of
    its sessions); safe to read from any domain. *)
val cache_stats : t -> Fg_core.Unit.stats

(** Execute one program-shaped request ([check | run | translate |
    fuzz_one]); control requests ([stats | shutdown]) are answered by
    the pool and must not reach a handler.  Never raises: diagnostics
    and unexpected exceptions come back as [Failed] with a
    diagnostics-shaped payload. *)
val handle_safe : t -> Protocol.request -> Protocol.status * string
