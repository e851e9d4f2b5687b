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
    FG0601 fuel diagnostic instead). *)
val create : ?fuel:int -> unit -> t

(** Eagerly build the standard-prelude session (workers call this at
    startup so the first request doesn't pay the prelude check). *)
val warm : t -> unit

(** Counters of this worker's compilation-unit cache (shared by all of
    its sessions); safe to read from any domain. *)
val cache_stats : t -> Fg_core.Unit.stats

(** Execute one program-shaped request ([check | run | translate]);
    control requests ([stats | shutdown]) are answered by the pool and
    must not reach a handler.  Never raises: diagnostics
    and unexpected exceptions come back as [Failed] with a
    diagnostics-shaped payload. *)
val handle_safe : t -> Protocol.request -> Protocol.status * string
