(** Bounded request queue + worker-domain pool (see the interface).

    Concurrency structure:

    - the queue is a [Queue.t] guarded by one mutex with two condition
      variables ([not_empty] for workers, [not_full] for the blocking
      enqueue used by shutdown sentinels);
    - workers are OCaml 5 domains; each owns a {!Handler.t} (and so its
      own warm sessions — checker state never crosses domains);
    - metrics are per-domain sharded counters ({!Shardcounter.t},
      merged on read) and {!Telemetry.Histogram}s, safe to bump from
      any domain and to read from any thread;
    - backpressure is explicit: {!try_enqueue} never blocks and never
      buffers beyond [capacity] — a full queue is the caller's signal
      to send an overload response. *)

open Fg_util

(* The shared monotonized clock: durations measured against it are
   never negative even if wall time steps backwards. *)
let now_ns = Telemetry.now_ns

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)

let n_kinds = List.length Protocol.all_kinds
let kind_index k = Option.get (List.find_index (( = ) k) Protocol.all_kinds)

let all_statuses =
  Protocol.
    [ Ok_; Failed; Timeout; Overload; Shutting_down; Protocol_error ]

let n_statuses = List.length all_statuses
let status_index s = Option.get (List.find_index (( = ) s) all_statuses)

type metrics = {
  started_ns : int;
  by_kind_status : Shardcounter.t array;  (** [n_kinds * n_statuses] grid *)
  queue_depth : Shardcounter.t;
  enqueued : Shardcounter.t;
  protocol_errors : Shardcounter.t;
  connections_opened : Shardcounter.t;
  latency : Telemetry.Histogram.t;  (** enqueue → response ready, ns *)
  queue_wait : Telemetry.Histogram.t;  (** enqueue → dequeue, ns *)
}

let metrics () =
  {
    started_ns = now_ns ();
    by_kind_status =
      Array.init (n_kinds * n_statuses) (fun _ -> Shardcounter.create ());
    queue_depth = Shardcounter.create ();
    enqueued = Shardcounter.create ();
    protocol_errors = Shardcounter.create ();
    connections_opened = Shardcounter.create ();
    latency = Telemetry.Histogram.create ();
    queue_wait = Telemetry.Histogram.create ();
  }

let record_outcome m kind status =
  Shardcounter.incr
    m.by_kind_status.((kind_index kind * n_statuses) + status_index status)

let record_protocol_error m = Shardcounter.incr m.protocol_errors
let record_connection m = Shardcounter.incr m.connections_opened

let metrics_to_json ?(extra = []) m =
  let requests =
    List.map
      (fun k ->
        let counts =
          List.filter_map
            (fun s ->
              let n =
                Shardcounter.read
                  m.by_kind_status.((kind_index k * n_statuses)
                                    + status_index s)
              in
              if n = 0 then None
              else Some (Protocol.status_name s, Json.Int n))
            all_statuses
        in
        (Protocol.kind_name k, Json.Obj counts))
      Protocol.all_kinds
  in
  Json.Obj
    ([
       ("uptime_ms", Json.Int ((now_ns () - m.started_ns) / 1_000_000));
       ("enqueued", Json.Int (Shardcounter.read m.enqueued));
       ("queue_depth", Json.Int (Shardcounter.read m.queue_depth));
       ("protocol_errors", Json.Int (Shardcounter.read m.protocol_errors));
       ( "connections_opened",
         Json.Int (Shardcounter.read m.connections_opened) );
       ("requests", Json.Obj requests);
       ("latency", Telemetry.Histogram.to_json m.latency);
       ("queue_wait", Telemetry.Histogram.to_json m.queue_wait);
     ]
    @ extra)

(* ---------------------------------------------------------------- *)
(* The pool                                                          *)

type job = {
  req : Protocol.request;
  enqueued_ns : int;
  deadline_ns : int option;
  respond : Protocol.response -> unit;
}

type t = {
  capacity : int;
  fuel : int option;
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  queue : job Queue.t;
  mutable stopping : bool;  (** guarded by [m] *)
  mutable workers : unit Domain.t list;
  mutable handlers : Handler.t list;
      (** one per worker, registered at worker startup (guarded by [m]);
          read by the stats payload for per-worker unit-cache counters *)
  metrics : metrics;
  stats_json : unit -> Json.t;
      (** the [stats] payload; the server closes over its own config *)
}

let create ?fuel ~capacity ~stats_json () =
  let metrics = metrics () in
  {
    capacity = max 1 capacity;
    fuel;
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    queue = Queue.create ();
    stopping = false;
    workers = [];
    handlers = [];
    metrics;
    stats_json = (fun () -> stats_json metrics);
  }

let metrics t = t.metrics

(* Per-worker unit-cache counters plus their totals.  The handler list
   is read under the pool mutex; the counters themselves are atomics,
   so reading them from whichever worker serves the stats request is
   safe while other workers keep checking. *)
let unit_cache_json t =
  Mutex.lock t.m;
  let handlers = List.rev t.handlers in
  Mutex.unlock t.m;
  let stats = List.map Handler.cache_stats handlers in
  let obj (s : Fg_core.Unit.stats) =
    Json.Obj
      [
        ("hits", Json.Int s.Fg_core.Unit.s_hits);
        ("misses", Json.Int s.Fg_core.Unit.s_misses);
        ("evictions", Json.Int s.Fg_core.Unit.s_evictions);
        ("size", Json.Int s.Fg_core.Unit.s_size);
        ("capacity", Json.Int s.Fg_core.Unit.s_capacity);
      ]
  in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  Json.Obj
    [
      ("workers", Json.List (List.map obj stats));
      ( "totals",
        Json.Obj
          [
            ("hits", Json.Int (total (fun s -> s.Fg_core.Unit.s_hits)));
            ("misses", Json.Int (total (fun s -> s.Fg_core.Unit.s_misses)));
            ( "evictions",
              Json.Int (total (fun s -> s.Fg_core.Unit.s_evictions)) );
            ("size", Json.Int (total (fun s -> s.Fg_core.Unit.s_size)));
          ] );
    ]

let stats_payload t =
  let base = t.stats_json () in
  let json =
    match base with
    | Json.Obj fields -> Json.Obj (fields @ [ ("unit_cache", unit_cache_json t) ])
    | j -> j
  in
  (* sort_keys: the stats payload is byte-stable modulo counter values,
     so two fleets serving the same workload diff cleanly *)
  Json.to_string (Json.sort_keys json)

let stopping t =
  Mutex.lock t.m;
  let s = t.stopping in
  Mutex.unlock t.m;
  s

(* Begin the drain: no new work is admitted, workers finish what is
   queued and exit.  Idempotent; callable from any thread or domain. *)
let initiate_stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m

(* ---------------------------------------------------------------- *)
(* Worker side                                                       *)

(* The limit printed is the one the deadline was computed from: the
   request's own [timeout_ms] or the server's default. *)
let timeout_response (job : job) ~elapsed_ms =
  let limit_ns =
    Option.fold ~none:0 ~some:(fun d -> d - job.enqueued_ns) job.deadline_ns
  in
  {
    Protocol.r_id = job.req.Protocol.id;
    r_status = Protocol.Timeout;
    r_payload =
      Protocol.error_payload ~file:job.req.Protocol.file ~code:"FG0801"
        "request exceeded its deadline (%dms elapsed, limit %dms)"
        elapsed_ms (limit_ns / 1_000_000);
  }

let past_deadline (job : job) now =
  match job.deadline_ns with Some d -> now > d | None -> false

let process t handler (job : job) =
  let start = now_ns () in
  Telemetry.Histogram.observe t.metrics.queue_wait
    (start - job.enqueued_ns);
  let resp =
    match job.req.Protocol.kind with
    | Protocol.Shutdown ->
        (* Graceful drain: everything enqueued before this sentinel
           has already been served (FIFO); flip the flag so nothing
           new is admitted, then acknowledge.  No deadline applies:
           the server blocks for queue space so that a shutdown cannot
           be dropped, and an expired one must still start the
           drain. *)
        initiate_stop t;
        { Protocol.r_id = job.req.Protocol.id; r_status = Protocol.Ok_;
          r_payload =
            Json.to_string
              (Json.Obj
                 [ ("ok", Json.Bool true); ("draining", Json.Bool true) ]) }
    | _ when past_deadline job start ->
        (* Expired while queued: reject without running. *)
        timeout_response job
          ~elapsed_ms:((start - job.enqueued_ns) / 1_000_000)
    | Protocol.Stats ->
        { Protocol.r_id = job.req.Protocol.id; r_status = Protocol.Ok_;
          r_payload = stats_payload t }
    | _ ->
        let status, payload = Handler.handle_safe handler job.req in
        let finished = now_ns () in
        if past_deadline job finished then
          (* The work completed but its deadline had already passed:
             honor the contract and report a timeout (the result is
             discarded, exactly like a caller that stopped
             waiting). *)
          timeout_response job
            ~elapsed_ms:((finished - job.enqueued_ns) / 1_000_000)
        else
          { Protocol.r_id = job.req.Protocol.id; r_status = status;
            r_payload = payload }
  in
  let done_ns = now_ns () in
  Telemetry.Histogram.observe t.metrics.latency (done_ns - job.enqueued_ns);
  record_outcome t.metrics job.req.Protocol.kind resp.Protocol.r_status;
  job.respond resp

let worker_loop t =
  let handler = Handler.create ?fuel:t.fuel () in
  Mutex.lock t.m;
  t.handlers <- handler :: t.handlers;
  Mutex.unlock t.m;
  Handler.warm handler;
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.m
    done;
    if Queue.is_empty t.queue then (* stopping && drained *)
      Mutex.unlock t.m
    else begin
      let job = Queue.pop t.queue in
      Shardcounter.decr t.metrics.queue_depth;
      Condition.signal t.not_full;
      Mutex.unlock t.m;
      process t handler job;
      loop ()
    end
  in
  loop ()

let start ~workers t =
  t.workers <-
    List.init (max 1 workers) (fun _ -> Domain.spawn (fun () -> worker_loop t))

(* Wait for the drain to finish: workers exit once [stopping] is set
   and the queue is empty. *)
let join t = List.iter Domain.join t.workers

(* ---------------------------------------------------------------- *)
(* Submission side                                                   *)

let try_enqueue t job =
  Mutex.lock t.m;
  let verdict =
    if t.stopping then `Shutting_down
    else if Queue.length t.queue >= t.capacity then `Overload
    else begin
      Queue.push job t.queue;
      Shardcounter.incr t.metrics.queue_depth;
      Shardcounter.incr t.metrics.enqueued;
      Condition.signal t.not_empty;
      `Ok
    end
  in
  Mutex.unlock t.m;
  verdict

let enqueue_wait t job =
  Mutex.lock t.m;
  let rec wait () =
    if t.stopping then false
    else if Queue.length t.queue >= t.capacity then begin
      Condition.wait t.not_full t.m;
      wait ()
    end
    else begin
      Queue.push job t.queue;
      Shardcounter.incr t.metrics.queue_depth;
      Shardcounter.incr t.metrics.enqueued;
      Condition.signal t.not_empty;
      true
    end
  in
  let admitted = wait () in
  Mutex.unlock t.m;
  admitted
