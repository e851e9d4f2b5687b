(* The five end-to-end workloads, measured with tracing off.

   All load comes from this process: at most two threads and two
   connections.  Daemons are child [fgc serve --socket] processes with
   default flags, CLI runs are child [fgc] processes, and the programs
   under test see only the generated inputs.

   Every workload reports the same end-to-end metrics, each defined on
   the workload's own operations (README.md has the table): [setup_s],
   the CPU time of one set-up; [cpu_ms] and [aux_cpu_ms], the CPU time
   the program under test spends per primary and per secondary
   operation; and [peak_rss_mb] after a fixed amount of work.  CPU time
   rather than wall time: see [Proc].  Wall-clock latencies (median and
   tail, with sample counts), wall throughputs and the stolen share of
   the machine go into each BENCH file's details. *)

open Fg_util
module Protocol = Fg_server.Protocol
module Client = Fg_server.Client

type config = {
  root : string;  (** the repository checkout: programs/ lives here *)
  fgc : string;  (** the fgc executable under test *)
  work : string;  (** a temporary directory for sockets, caches and files *)
  seed : int;
  seconds : float;  (** the measurement window *)
  deadline : float;
      (** wall clock ([Proc.now]) past which no loop starts another
          round and no failed run is tried again *)
  scale : float;
      (** multiplies warm-up sizes and sample minimums; 1 for real
          runs, 0.01 for the smoke alias *)
}

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  failures : Verdict.failure list;
      (** every failed operation, retried ones included *)
  metrics : (string * float) list;
  details : (string * Json.t) list;  (** sample counts and side numbers *)
}

let now = Proc.now
let setups = 3

(* Each cost metric is a median over at least this many processes,
   rounds or chunks. *)
let min_costs = 10

let min_samples cfg n = max 2 (int_of_float (Float.ceil (float_of_int n *. cfg.scale)))

(* ---------------------------------------------------------------- *)
(* Bookkeeping shared by the workloads                              *)

type tally = {
  mutable attempted : int;
  mutable failures : Verdict.failure list;
  mutable failed : int;  (** failures that were not retried away *)
  lock : Mutex.t;
}

let tally () = { attempted = 0; failures = []; failed = 0; lock = Mutex.create () }

(* Count one operation and, when [got] is [Some codes], its failure. *)
let record t ~file got =
  Mutex.protect t.lock (fun () ->
      t.attempted <- t.attempted + 1;
      match got with
      | None -> ()
      | Some got ->
          t.failed <- t.failed + 1;
          t.failures <- { Verdict.file; got } :: t.failures)

(* Repeat a set-up [setups] times, discarding all but the last.  Each
   set-up's cost is the CPU time of this process and the children it
   reaped, plus the daemon it leaves running (measured before anything
   is discarded); with a daemon, the daemon's peak RSS after it too.
   Returns the last set-up's state, the costs and the peak RSSes. *)
let repeated_setup ?(daemon = fun _ -> None) setup discard =
  let rec go k costs rsss =
    let c0 = Proc.own_cpu_s () in
    let st = setup () in
    let d : Proc.daemon option = daemon st in
    let cost =
      Proc.own_cpu_s () -. c0
      +. Option.fold ~none:0. ~some:(fun d -> Proc.cpu_ms d.Proc.pid /. 1000.) d
    in
    let rss = Option.fold ~none:0. ~some:(fun d -> float_of_int (Proc.hwm_kb d.Proc.pid)) d in
    if k = setups then (st, List.rev (cost :: costs), List.rev (rss :: rsss))
    else begin
      discard st;
      go (k + 1) (cost :: costs) (rss :: rsss)
    end
  in
  go 1 [] []

(* Measure until the window has passed and [enough ()] holds, but never
   past two windows or the deadline. *)
let keep_going cfg t0 enough =
  let el = now () -. t0 in
  el < 2. *. cfg.seconds && now () < cfg.deadline && (el < cfg.seconds || not (enough ()))

let mb kb = kb /. 1024.

let finish t ~setup ~metrics ~details =
  {
    correct = t.failed = 0;
    attempted = max 1 t.attempted;
    failed = t.failed;
    failures = List.rev t.failures;
    metrics;
    details = ("setup_runs_cpu_s", Json.List (List.map (fun x -> Json.Float x) setup)) :: details;
  }

let metrics ~setup ~cpu ~aux_cpu ~rss_kb =
  [
    ("setup_s", Stats.median setup);
    ("cpu_ms", Stats.median cpu);
    ("aux_cpu_ms", Stats.median aux_cpu);
    ("peak_rss_mb", mb rss_kb);
  ]

(* Wall-clock latencies: the count, the median and the highest of p99,
   p95, p90, p75 that has at least ten samples beyond it. *)
let latency_json xs =
  let n = List.length xs in
  let tail = List.find_opt (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.) [ 99.; 95.; 90.; 75. ] in
  Json.Obj
    (("count", Json.Int n)
    :: (if n = 0 then []
        else
          ("p50_ms", Json.Float (Stats.median xs))
          :: Option.fold ~none:[]
               ~some:(fun p -> [ (Printf.sprintf "p%g_ms" p, Json.Float (Stats.percentile xs p)) ])
               tail))

(* CPU per operation (the median over samples) beside the operations'
   wall-clock latencies. *)
let cost_json cpu wall =
  Json.Obj [ ("cpu_ms", Json.Float (Stats.median cpu)); ("wall", latency_json wall) ]

let steal_json mark = ("steal_share", Json.Float (Proc.steal_share mark))

(* A served run request's verdict: an [ok] or [error] status carries a
   run report to check; anything else (overload, timeout) is a failure
   named by its status. *)
let check_response (p : Inputs.program) (r : Protocol.response) =
  match r.Protocol.r_status with
  | Protocol.Ok_ | Protocol.Failed -> Verdict.check_payload p.Inputs.expect r.r_payload
  | s -> Some [ Protocol.status_name s ]

let run_request ~prelude (p : Inputs.program) id =
  Protocol.request ~id ~file:p.Inputs.name ~source:p.Inputs.source ~prelude
    Protocol.Run

(* Keep [window] requests in flight on [c] while [more ()] holds, then
   drain.  [next ()] gives a function from an id to a request, and a tag;
   [on_done tag response ms] sees each reply with its latency from
   send. *)
let closed_loop c ~window ~next ~more ~on_done =
  let inflight = Hashtbl.create 16 and id = ref 0 in
  let send () =
    let build, tag = next () in
    incr id;
    Hashtbl.replace inflight !id (tag, now ());
    Client.send c (build !id)
  in
  for _ = 1 to window do
    if more () then send ()
  done;
  while Hashtbl.length inflight > 0 do
    let r = Client.read_response c in
    let t = now () in
    match Hashtbl.find_opt inflight r.Protocol.r_id with
    | None -> failwith "response to a request never sent"
    | Some (tag, t0) ->
        Hashtbl.remove inflight r.Protocol.r_id;
        on_done tag r ((t -. t0) *. 1000.);
        if more () then send ()
  done

(* The served workloads measure CPU per request over chunks of their
   closed loops.  [closed_loop] drains before it returns, so a chunk's
   requests and the daemon's CPU time over it match up; the median over
   chunks leaves out the few a burst on the host disturbed. *)
let chunk_seconds cfg = Float.min 0.5 (cfg.seconds /. 10.)

let chunk cfg c (d : Proc.daemon) ~window ~next ~on_done =
  let c0 = Proc.cpu_ms d.Proc.pid and n = ref 0 and t0 = now () in
  closed_loop c ~window ~next
    ~more:(fun () -> now () -. t0 < chunk_seconds cfg)
    ~on_done:(fun tag r ms ->
      incr n;
      on_done tag r ms);
  (Proc.cpu_ms d.Proc.pid -. c0) /. float_of_int !n

let socket cfg = Filename.concat cfg.work "fgc.sock"

(* ---------------------------------------------------------------- *)
(* oneshot                                                           *)

(* 22 corpus files in seeded rounds, each as three sequential
   [fgc run --format=json -p] processes: no cache (primary), a cache
   directory pre-warmed in set-up (aux), and a fresh empty cache
   directory (the write path, recorded in details).  Costs are each
   process's CPU time; the peak RSS is the largest no-cache process. *)
let oneshot cfg =
  let t = tally () in
  let files = Array.of_list (Inputs.corpus ~root:cfg.root) in
  let warm = Filename.concat cfg.work "warm-cache" in
  let run_one ?cache (p : Inputs.program) =
    let args =
      [ "run"; "--format=json"; "-p" ]
      @ (match cache with Some d -> [ "--cache-dir"; d ] | None -> [])
      @ [ p.Inputs.path ]
    in
    let o = Proc.run cfg.fgc args in
    record t ~file:p.Inputs.name
      (if o.Proc.code <> 0 then Some [ Printf.sprintf "exit %d" o.Proc.code ]
       else Verdict.check_payload p.Inputs.expect o.Proc.out);
    o
  in
  let (), setup, _ =
    repeated_setup
      (fun () ->
        Proc.rm_rf warm;
        Array.iter (fun p -> ignore (run_one ~cache:warm p)) files)
      ignore
  in
  let rounds = Inputs.shuffled_rounds ~seed:cfg.seed ~tag:"oneshot" files in
  let none = ref [] and warm_runs = ref [] and cold_runs = ref [] in
  let need = min_samples cfg min_costs in
  let t0 = now () and mark = Proc.steal_mark () in
  while keep_going cfg t0 (fun () -> List.length !none >= need) do
    Array.iter
      (fun p ->
        none := run_one p :: !none;
        warm_runs := run_one ~cache:warm p :: !warm_runs;
        let cold = Filename.concat cfg.work (Printf.sprintf "cold-%d" (List.length !cold_runs)) in
        cold_runs := run_one ~cache:cold p :: !cold_runs;
        Proc.rm_rf cold)
      (rounds ())
  done;
  let cpu os = List.map (fun o -> o.Proc.cpu_ms) os in
  let processes os = cost_json (cpu os) (List.map (fun o -> o.Proc.ms) os) in
  finish t ~setup
    ~metrics:
      (metrics ~setup ~cpu:(cpu !none) ~aux_cpu:(cpu !warm_runs)
         ~rss_kb:(float_of_int (List.fold_left (fun m o -> max m o.Proc.maxrss_kb) 0 !none)))
    ~details:
      [
        steal_json mark;
        ("no_cache", processes !none);
        ("disk_warm", processes !warm_runs);
        ("disk_cold", processes !cold_runs);
      ]

(* ---------------------------------------------------------------- *)
(* serve_corpus                                                      *)

(* The 22 corpus files plus the 9 error files, prelude on.  Set-up
   warms the daemon with three passes over them.  Phase A: open loop,
   Poisson arrivals at [Inputs.serve_rate] in a seeded shuffle, one
   sender and one receiver thread on one connection, latency from each
   request's due time (details).  Phase B: closed loop with a window of
   8, in chunks that alternate between the corpus files (primary) and
   the error files (aux: failed checks are never cached, so they
   re-check the failure path). *)
let serve_corpus cfg =
  let t = tally () in
  let corpus = Array.of_list (Inputs.corpus ~root:cfg.root)
  and errors = Array.of_list (Inputs.errors ~root:cfg.root) in
  let files = Array.append corpus errors in
  let check (p : Inputs.program) r = record t ~file:p.Inputs.name (check_response p r) in
  let serve next () =
    let p = next () in
    (run_request ~prelude:true p, p)
  in
  let (d, c), setup, rss =
    repeated_setup
      ~daemon:(fun (d, _) -> Some d)
      (fun () ->
        let d = Proc.start_daemon ~fgc:cfg.fgc ~socket:(socket cfg) in
        let c = Proc.connect d in
        let left = ref (3 * Array.length files) and next = serve (Inputs.cycle (fun () -> files)) in
        closed_loop c ~window:32
          ~next:(fun () ->
            decr left;
            next ())
          ~more:(fun () -> !left > 0)
          ~on_done:(fun p r _ -> check p r);
        (d, c))
      (fun (d, c) ->
        Client.close c;
        Proc.stop_daemon d)
  in
  let mark = Proc.steal_mark () in
  (* Phase A *)
  let n_a =
    max (min_samples cfg 100) (int_of_float (Inputs.serve_rate *. 0.3 *. cfg.seconds))
  in
  let next = Inputs.cycle (Inputs.shuffled_rounds ~seed:cfg.seed ~tag:"serve_corpus" files) in
  let gap = Inputs.poisson_gaps ~rate:Inputs.serve_rate in
  let progs = Array.init n_a (fun _ -> next ()) in
  let due = Array.make n_a 0. and late = Array.make n_a 0. and sent = Array.make n_a 0. in
  let cpu_a = Proc.cpu_ms d.Proc.pid in
  let start = now () +. 0.005 in
  let clock = ref start in
  Array.iteri
    (fun i _ ->
      clock := !clock +. gap ();
      due.(i) <- !clock)
    due;
  let sender =
    Thread.create
      (fun () ->
        Array.iteri
          (fun i p ->
            let wait = due.(i) -. now () in
            if wait > 0. then Unix.sleepf wait;
            sent.(i) <- now ();
            late.(i) <- Float.max 0. (sent.(i) -. due.(i));
            Client.send c (run_request ~prelude:true p (i + 1)))
          progs)
      ()
  in
  (* The receiver only timestamps, so the sender keeps to schedule;
     responses are checked after the phase. *)
  let lat = Array.make n_a 0. and got = Array.make n_a None in
  for _ = 1 to n_a do
    let r = Client.read_response c in
    let i = r.Protocol.r_id - 1 in
    lat.(i) <- (now () -. due.(i)) *. 1000.;
    got.(i) <- Some r
  done;
  Thread.join sender;
  let a_wall = now () -. start in
  let a_cpu = (Proc.cpu_ms d.Proc.pid -. cpu_a) /. float_of_int n_a in
  Array.iteri (fun i r -> Option.iter (check progs.(i)) r) got;
  let lat_of keep = List.filteri (fun i _ -> keep progs.(i)) (Array.to_list lat) in
  let is_error (p : Inputs.program) = match p.Inputs.expect with Inputs.Codes _ -> true | _ -> false in
  (* Phase B *)
  let next_corpus = serve (Inputs.cycle (Inputs.shuffled_rounds ~seed:cfg.seed ~tag:"serve_corpus.b" corpus))
  and next_error = serve (Inputs.cycle (Inputs.shuffled_rounds ~seed:cfg.seed ~tag:"serve_corpus.b.errors" errors)) in
  let corpus_cpu = ref [] and error_cpu = ref [] and lat_b = ref [] and b_time = ref 0. in
  let on_done p r ms =
    lat_b := ms :: !lat_b;
    check p r
  in
  let need = min_samples cfg min_costs in
  while keep_going cfg start (fun () -> List.length !error_cpu >= need) do
    let t0 = now () in
    corpus_cpu := chunk cfg c d ~window:8 ~next:next_corpus ~on_done :: !corpus_cpu;
    error_cpu := chunk cfg c d ~window:8 ~next:next_error ~on_done :: !error_cpu;
    b_time := !b_time +. (now () -. t0)
  done;
  Client.close c;
  Proc.stop_daemon d;
  finish t ~setup
    ~metrics:(metrics ~setup ~cpu:!corpus_cpu ~aux_cpu:!error_cpu ~rss_kb:(Stats.median rss))
    ~details:
      [
        steal_json mark;
        ("phase_a", latency_json (Array.to_list lat));
        ("phase_a_error_files", latency_json (lat_of is_error));
        ("phase_a_cpu_ms_per_request", Json.Float a_cpu);
        ("phase_a_offered_per_s", Json.Float (float_of_int n_a /. a_wall));
        ("generator_lateness", latency_json (Array.to_list (Array.map (fun x -> x *. 1000.) late)));
        ("phase_b", latency_json !lat_b);
        ("phase_b_per_s", Json.Float (float_of_int (List.length !lat_b) /. !b_time));
      ]

(* ---------------------------------------------------------------- *)
(* serve_zipf                                                        *)

(* The loadgen Zipf stream over 640 [Eq2<list^20 int>] variants, no
   prelude: a working set larger than the default per-worker unit
   cache.  Set-up starts the daemon and sends the stream's first
   [warmup_requests] (aux: CPU per request from a cold cache); then a
   closed loop with a window of 2 (primary: CPU per request once the
   cache is as warm as it gets). *)
let warmup_requests = 300

let serve_zipf cfg =
  let t = tally () in
  let stream = ref (Inputs.zipf_stream ~seed:cfg.seed) in
  let next_req () =
    let i, sweep = !stream () in
    let p = Inputs.zipf_program i in
    (run_request ~prelude:false p, (p, sweep))
  in
  let check (p : Inputs.program) r = record t ~file:p.Inputs.name (check_response p r) in
  let cold = ref [] in
  let (d, c), setup, rss =
    repeated_setup
      ~daemon:(fun (d, _) -> Some d)
      (fun () ->
        stream := Inputs.zipf_stream ~seed:cfg.seed;
        let d = Proc.start_daemon ~fgc:cfg.fgc ~socket:(socket cfg) in
        let c = Proc.connect d in
        let n = min_samples cfg warmup_requests in
        let c0 = Proc.cpu_ms d.Proc.pid and left = ref n in
        closed_loop c ~window:2
          ~next:(fun () ->
            decr left;
            next_req ())
          ~more:(fun () -> !left > 0)
          ~on_done:(fun (p, _) r _ -> check p r);
        cold := ((Proc.cpu_ms d.Proc.pid -. c0) /. float_of_int n) :: !cold;
        (d, c))
      (fun (d, c) ->
        Client.close c;
        Proc.stop_daemon d)
  in
  let per_request = ref [] and all = ref [] and sweep = ref [] in
  let need = min_samples cfg min_costs in
  let t0 = now () and mark = Proc.steal_mark () in
  while keep_going cfg t0 (fun () -> List.length !per_request >= need) do
    per_request :=
      chunk cfg c d ~window:2 ~next:next_req ~on_done:(fun (p, sw) r ms ->
          all := ms :: !all;
          if sw then sweep := ms :: !sweep;
          check p r)
      :: !per_request
  done;
  let wall = now () -. t0 in
  let stats = Client.stats c in
  Client.close c;
  Proc.stop_daemon d;
  let unit_cache =
    match Json.of_string stats.Protocol.r_payload with
    | Ok j -> Option.value ~default:Json.Null (Json.mem "unit_cache" j)
    | Error _ -> Json.Null
  in
  finish t ~setup
    ~metrics:(metrics ~setup ~cpu:!per_request ~aux_cpu:!cold ~rss_kb:(Stats.median rss))
    ~details:
      [
        steal_json mark;
        ("all", latency_json !all);
        ("sweep", latency_json !sweep);
        ("per_s", Json.Float (float_of_int (List.length !all) /. wall));
        ("unit_cache", unit_cache);
      ]

(* ---------------------------------------------------------------- *)
(* edit                                                              *)

(* All 22 corpus files open as v5 documents.  Connection A (primary)
   bumps a literal digit and reverts it, alternately, in a closed loop;
   every revert must restore the header value.  Connection B (aux)
   concurrently asks for hovers and completions at seeded offsets in
   the other documents until A stops.  The daemon serves each
   connection's workspace requests on that connection's own reader
   thread, so each side's cost is its reader thread's CPU time per
   request, over chunks of A's loop. *)
let edit cfg =
  let t = tally () in
  let docs = Array.of_list (Inputs.corpus ~root:cfg.root) in
  let texts = Array.map (fun (p : Inputs.program) -> Bytes.of_string p.Inputs.source) docs in
  let versions = Array.make (Array.length docs) 1 in
  let setup () =
    let d = Proc.start_daemon ~fgc:cfg.fgc ~socket:(socket cfg) in
    let c, reader = Proc.connect_with_thread d in
    Array.iter
      (fun (p : Inputs.program) ->
        let r = Client.doc_open c ~version:1 ~prelude:true ~name:p.Inputs.name p.Inputs.source in
        record t ~file:p.Inputs.name (check_response p r))
      docs;
    (d, c, reader)
  in
  let (d, a, reader_a), setup, rss =
    repeated_setup
      ~daemon:(fun (d, _, _) -> Some d)
      setup
      (fun (d, c, _) ->
        Client.close c;
        Proc.stop_daemon d)
  in
  let editing = Atomic.make (-1) and stop = Atomic.make false in
  let queries = Atomic.make 0 and query_ms = ref [] in
  let b, reader_b = Proc.connect_with_thread d in
  let query = Inputs.query_stream ~seed:cfg.seed docs in
  let asker =
    Thread.create
      (fun () ->
        try
          while not (Atomic.get stop) do
            let i, off, hover = query () in
            if i <> Atomic.get editing then begin
              let name = docs.(i).Inputs.name in
              let t0 = now () in
              let r =
                if hover then Client.hover b ~name ~offset:off
                else Client.completion b ~name ~offset:off
              in
              query_ms := ((now () -. t0) *. 1000.) :: !query_ms;
              Atomic.incr queries;
              record t ~file:name
                (match r.Protocol.r_status with
                | Protocol.Ok_ -> None
                | s -> Some [ Protocol.status_name s ])
            end
          done
        with
        | Client.Client_error e -> record t ~file:"(connection B)" (Some [ e ])
        | e -> record t ~file:"(connection B)" (Some [ Printexc.to_string e ]))
      ()
  in
  let edits = ref 0 and edit_ms = ref [] in
  let change i off c ~check =
    let p = docs.(i) in
    versions.(i) <- versions.(i) + 1;
    Bytes.set texts.(i) off c;
    let t0 = now () in
    let r =
      Client.doc_change a ~version:versions.(i) ~name:p.Inputs.name
        (`Edits [ (off, 1, String.make 1 c) ])
    in
    edit_ms := ((now () -. t0) *. 1000.) :: !edit_ms;
    incr edits;
    record t ~file:p.Inputs.name
      (match r.Protocol.r_status with
      | Protocol.Ok_ ->
          if check then Verdict.check_payload p.Inputs.expect r.Protocol.r_payload
          else None
      | s -> Some [ Protocol.status_name s ])
  in
  let visit = Inputs.edit_visits ~seed:cfg.seed docs in
  let snapshot () =
    ( Proc.thread_cpu_ms d.Proc.pid reader_a,
      !edits,
      Proc.thread_cpu_ms d.Proc.pid reader_b,
      Atomic.get queries )
  in
  let edit_cpu = ref [] and query_cpu = ref [] in
  let need = min_samples cfg min_costs in
  let t0 = now () and mark = Proc.steal_mark () in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join asker)
    (fun () ->
      while
        keep_going cfg t0 (fun () -> List.length !edit_cpu >= need && List.length !query_cpu >= need)
      do
        let a0, e0, b0, q0 = snapshot () and c0 = now () in
        while now () -. c0 < chunk_seconds cfg do
          let i, off = visit () in
          Atomic.set editing i;
          let orig = Bytes.get texts.(i) off in
          change i off (Inputs.bump orig) ~check:false;
          change i off orig ~check:true
        done;
        let a1, e1, b1, q1 = snapshot () in
        edit_cpu := ((a1 -. a0) /. float_of_int (e1 - e0)) :: !edit_cpu;
        if q1 > q0 then query_cpu := ((b1 -. b0) /. float_of_int (q1 - q0)) :: !query_cpu
      done);
  let wall = now () -. t0 in
  Client.close a;
  Client.close b;
  Proc.stop_daemon d;
  finish t ~setup
    ~metrics:(metrics ~setup ~cpu:!edit_cpu ~aux_cpu:!query_cpu ~rss_kb:(Stats.median rss))
    ~details:
      [
        steal_json mark;
        ("edits", latency_json !edit_ms);
        ("edits_per_s", Json.Float (float_of_int !edits /. wall));
        ("hover_completion", latency_json !query_ms);
      ]

(* ---------------------------------------------------------------- *)
(* batch_gen                                                         *)

(* 209 generated files per [fgc batch --format=json] round: nine
   Genprog families and 200 [Gen] programs printed by [Pretty].  Set-up
   writes them and runs one warm-up round.  Rounds alternate between
   the default domain count (primary) and one domain (aux); costs are
   each round's CPU time.  A round whose output is wrong is recorded
   with every failing file and its codes, then run again, up to five
   attempts; only a round that never succeeds counts as failed. *)
let max_attempts = 5

let batch_gen cfg =
  let t = tally () in
  let dir = Filename.concat cfg.work "batch" in
  let progs = Array.of_list (Inputs.batch_programs ~seed:cfg.seed) in
  let n = Array.length progs in
  let paths = Array.to_list (Array.map (fun (p : Inputs.program) -> Filename.concat dir p.Inputs.name) progs) in
  let retried = ref 0 in
  let err_file = Filename.concat cfg.work "batch.err" in
  (* One attempt: its failures and how many programs they cost.  The
     result list is the first line; a round with failed programs adds a
     second, the batch's own error object.  A round that printed no
     result list failed as a whole; its stderr (the uncaught exception)
     is the code. *)
  let attempt jobs =
    let o = Proc.run ~err_file cfg.fgc ([ "batch"; "--format=json" ] @ jobs @ paths) in
    let first_line = List.hd (String.split_on_char '\n' o.Proc.out) in
    match Json.of_string first_line with
    | Ok (Json.List rs) when List.length rs = n ->
        let fails =
          List.concat
            (List.mapi
               (fun i r ->
                 match Verdict.check progs.(i).Inputs.expect r with
                 | None -> []
                 | Some got -> [ { Verdict.file = progs.(i).Inputs.name; got } ])
               rs)
        in
        (o, fails, List.length fails)
    | _ ->
        let err = In_channel.with_open_bin err_file In_channel.input_all in
        let why = String.concat " " (String.split_on_char '\n' (String.trim err)) in
        let got = [ Printf.sprintf "exit %d" o.Proc.code; why ] in
        (o, [ { Verdict.file = "(whole batch)"; got } ], n)
  in
  let round jobs =
    let rec go k =
      let o, fails, bad = attempt jobs in
      t.failures <- List.rev_append fails t.failures;
      if bad = 0 || k = max_attempts then (o, bad)
      else begin
        incr retried;
        go (k + 1)
      end
    in
    let o, bad = go 1 in
    t.attempted <- t.attempted + n;
    t.failed <- t.failed + bad;
    o
  in
  let (), setup, _ =
    repeated_setup
      (fun () ->
        Proc.rm_rf dir;
        Proc.mkdir_p dir;
        List.iter
          (fun (p : Inputs.program) ->
            Out_channel.with_open_bin (Filename.concat dir p.Inputs.name)
              (fun oc -> output_string oc p.Inputs.source))
          (Inputs.batch_programs ~seed:cfg.seed);
        ignore (round []))
      ignore
  in
  let main = ref [] and one = ref [] in
  let need = min_samples cfg min_costs in
  let t0 = now () and mark = Proc.steal_mark () in
  while keep_going cfg t0 (fun () -> List.length !main >= need) do
    main := round [] :: !main;
    one := round [ "--domains"; "1" ] :: !one
  done;
  let cpu os = List.map (fun o -> o.Proc.cpu_ms) os and wall os = List.map (fun o -> o.Proc.ms) os in
  finish t ~setup
    ~metrics:
      (metrics ~setup ~cpu:(cpu !main) ~aux_cpu:(cpu !one)
         ~rss_kb:(float_of_int (List.fold_left (fun m o -> max m o.Proc.maxrss_kb) 0 !main)))
    ~details:
      [
        steal_json mark;
        ("default_domains", cost_json (cpu !main) (wall !main));
        ("one_domain", cost_json (cpu !one) (wall !one));
        ("programs_per_s", Json.Float (float_of_int n /. (Stats.median (wall !main) /. 1000.)));
        ("retried_rounds", Json.Int !retried);
      ]

let run cfg = function
  | "oneshot" -> oneshot cfg
  | "serve_corpus" -> serve_corpus cfg
  | "serve_zipf" -> serve_zipf cfg
  | "edit" -> edit cfg
  | "batch_gen" -> batch_gen cfg
  | w -> invalid_arg ("unknown workload " ^ w)
