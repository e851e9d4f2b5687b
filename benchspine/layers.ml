(* The traced run: replays a workload's generated inputs in-process and
   times the calls into each layer's public functions as spans
   ([Spans]).  Per-layer metrics are self times per program, counts the
   program already exports (telemetry snapshots, unit-cache stats, the
   daemon's stats), and a few timings of whole components.

   The replay calls the pipeline's stages one by one — parse, elaborate,
   the theorem re-check, both evaluations, rendering — next to the
   end-to-end call they make up ([Session.run_full] plus rendering) on
   a twin session in the same cache state, so the layer self times can
   be checked against the end-to-end time ([trace.coverage_frac]). *)

open Fg_util
module C = Fg_core
module F = Fg_systemf
module S = Fg_core.Session
module Protocol = Fg_server.Protocol
module Client = Fg_server.Client
module W = Fg_workspace.Workspace

let span = Spans.span
let now = Proc.now

type inputs = {
  warmup : Inputs.program array;
      (** run untimed before the replay; non-empty for the served
          workloads, which keep one warm session across passes — the
          one-process-per-run workloads start every pass fresh *)
  pass : unit -> Inputs.program array;  (** the programs of the next pass *)
  prelude : bool;
}

(* serve_zipf replays a continuation of its stream in passes of 200
   after 300 untimed draws: enough to evict from the unit cache, short
   enough that the traced run stays near its window. *)
let zipf_warmup = 300
let zipf_pass = 200

let inputs_of (cfg : Workloads.config) workload =
  let fixed ?(warm = false) ~prelude l =
    let a = Array.of_list l in
    { warmup = (if warm then a else [||]); pass = (fun () -> a); prelude }
  in
  match workload with
  | "oneshot" -> fixed ~prelude:true (Inputs.corpus ~root:cfg.root)
  | "serve_corpus" ->
      fixed ~warm:true ~prelude:true (Inputs.corpus ~root:cfg.root @ Inputs.errors ~root:cfg.root)
  | "serve_zipf" ->
      let next = Inputs.zipf_stream ~seed:cfg.seed in
      let draws n = Array.init (Workloads.min_samples cfg n) (fun _ -> Inputs.zipf_program (fst (next ()))) in
      let warmup = draws zipf_warmup in
      { warmup; pass = (fun () -> draws zipf_pass); prelude = false }
  | "edit" -> fixed ~warm:true ~prelude:true (Inputs.corpus ~root:cfg.root)
  | "batch_gen" -> fixed ~prelude:false (Inputs.batch_programs ~seed:cfg.seed)
  | w -> invalid_arg ("unknown workload " ^ w)

let session_config inp =
  if inp.prelude then S.Config.(with_standard_prelude default) else S.Config.default

(* The in-process batches take under a second on every workload. *)
let batch_timeout = 20.

(* Domain parallelism, for [batch.domain_speedup] and
   [batch.race_failures]: the replay's first pass as one
   [Session.run_batch] on one domain and on the default count.  A
   default-count result that differs from the one-domain result (the
   batch race) is counted and the batch run again.  It runs in a child
   process, this executable's [batch-child] command, that the traced run
   kills after [batch_timeout]: the race has also made a batch spin.
   Prints whether the one-domain batch finished, the race count and the
   two times. *)
let batch_child (cfg : Workloads.config) workload =
  let inp = inputs_of cfg workload in
  let scfg = session_config inp in
  let jobs = Array.to_list (Array.map (fun (p : Inputs.program) -> (p.Inputs.name, p.Inputs.source)) (inp.pass ())) in
  let shape results =
    List.map
      (fun (n, r) ->
        match r with
        | Ok (o : S.outcome) -> n ^ "=" ^ C.Interp.flat_to_string o.S.value
        | Error (d : Diag.diagnostic) -> n ^ "!" ^ d.Diag.code)
      results
  in
  let timed_batch domains =
    let s = S.of_config scfg in
    let t0 = now () in
    let r = try Some (shape (S.run_batch ~domains s jobs)) with _ -> None in
    (r, now () -. t0)
  in
  let one, one_s = timed_batch 1 in
  let race = ref 0 in
  let rec default_batch k =
    let r, dt = timed_batch (S.default_domains ()) in
    if r = one || k = Workloads.max_attempts then dt
    else begin
      incr race;
      default_batch (k + 1)
    end
  in
  let many_s = default_batch 1 in
  Printf.printf "%B %d %h %h\n" (one <> None) !race one_s many_s

(* ---------------------------------------------------------------- *)
(* Pipeline replay                                                   *)

type counters = {
  mutable lookups : int;
  mutable hits : int;
  mutable misses : int;
  mutable cc : int;
  mutable interp_steps : int;
  mutable feval_steps : int;
  mutable unit_hits : int;
  mutable unit_misses : int;
  mutable evictions : int;
  mutable programs : int;
}

let render ~file report = Json.to_string (C.Jsonview.json_of_run_report ~file report)

(* The stages of [Session.run_full] for one program, each in its span.
   Returns the System F translation for the backend replay. *)
let replay_one k s (p : Inputs.program) =
  let file = p.Inputs.name and src = p.Inputs.source in
  span "program" (fun () ->
      let ast, _ =
        span "parse" (fun () ->
            C.Parser.exp_of_string_recovering ~engine:(Diag.engine ()) ~file src)
      in
      let before = Telemetry.snapshot () in
      let elab = span "check" (fun () -> Diag.protect (fun () -> S.elaborate ~file s src)) in
      let d = Telemetry.diff (Telemetry.snapshot ()) before in
      k.lookups <- k.lookups + d.Telemetry.model_lookups;
      k.hits <- k.hits + d.Telemetry.resolve_hits;
      k.misses <- k.misses + d.Telemetry.resolve_misses;
      k.cc <- k.cc + d.Telemetry.cc_rebuilds;
      k.programs <- k.programs + 1;
      let finished =
        Result.bind elab (fun triple ->
            Diag.protect (fun () ->
                let report = span "theorems" (fun () -> C.Theorems.report_of_elaboration triple) in
                let v, dsteps = span "interp" (fun () -> C.Interp.run_program report.C.Theorems.elaborated) in
                let fv, fsteps = span "feval" (fun () -> F.Eval.run report.C.Theorems.f_exp) in
                k.interp_steps <- k.interp_steps + dsteps;
                k.feval_steps <- k.feval_steps + fsteps;
                let value = C.Interp.flatten v in
                if not (C.Interp.flat_equal value (C.Interp.flatten_f fv)) then
                  Diag.error Diag.Eval "direct and translated values disagree";
                ( report,
                  {
                    S.source = src;
                    ast;
                    fg_ty = report.C.Theorems.fg_ty;
                    f_exp = report.C.Theorems.f_exp;
                    f_ty = report.C.Theorems.f_ty;
                    theorem_holds = true;
                    value;
                    direct_steps = dsteps;
                    translated_steps = fsteps;
                    backend = C.Backend.Dict;
                    spec = None;
                  } )))
      in
      let report, diagnostics, f =
        match finished with
        | Ok (r, o) -> (Some o, [], Some r.C.Theorems.f_exp)
        | Error d -> (None, [ d ], None)
      in
      ignore (span "render" (fun () -> render ~file { S.outcome = report; diagnostics }));
      f)

(* What a user-facing run costs end to end, on the twin session. *)
let e2e s (p : Inputs.program) =
  let file = p.Inputs.name in
  span "e2e" (fun () -> render ~file (S.run_full ~file s p.Inputs.source))

(* The specializing backends and their oracle on one translation. *)
let backends f =
  List.iter
    (fun (label, mode) ->
      let f', st = span ("specialize." ^ label) (fun () -> F.Specialize.specialize ~mode f) in
      if F.Specialize.changed st then
        span ("spec_oracle." ^ label) (fun () ->
            ignore (F.Typecheck.typecheck f');
            ignore (F.Eval.run f')))
    [ ("stencil", F.Specialize.Stencil); ("hybrid", F.Specialize.Hybrid) ]

(* One request and its response through the wire encoding. *)
let protocol ~prelude id (p : Inputs.program) payload =
  let round_trip enc dec =
    let frame = span "protocol.encode" (fun () -> Protocol.frame_of_string (Json.to_string (enc ()))) in
    span "protocol.decode" (fun () ->
        let d = Protocol.decoder () in
        Protocol.feed d frame 0 (Bytes.length frame);
        match Protocol.next_frame d with
        | `Frame s -> (
            match Json.of_string s with
            | Ok j -> if not (dec j) then failwith "protocol round trip lost a field"
            | Error e -> failwith e)
        | _ -> failwith "protocol round trip lost the frame")
  in
  let req = Workloads.run_request ~prelude p id in
  round_trip
    (fun () -> Protocol.request_to_json req)
    (fun j -> Result.is_ok (Protocol.request_of_json j));
  let resp = { Protocol.r_id = id; r_status = Protocol.Ok_; r_payload = payload } in
  round_trip
    (fun () -> Protocol.response_to_json resp)
    (fun j -> Result.is_ok (Protocol.response_of_json j))

(* ---------------------------------------------------------------- *)
(* The traced run                                                    *)

let median_ms f n =
  Stats.median
    (List.init n (fun _ ->
         let t0 = now () in
         f ();
         (now () -. t0) *. 1000.))

let run (cfg : Workloads.config) workload =
  let t = Workloads.tally () in
  let check (p : Inputs.program) payload =
    Workloads.record t ~file:p.Inputs.name (Verdict.check_payload p.Inputs.expect payload)
  in
  let inp = inputs_of cfg workload in
  let programs = inp.pass () in
  let scfg = session_config inp in
  (* The first Diskcache read in a process digests the running binary
     (its build id); measure it before anything else can. *)
  let first_dir = Filename.concat cfg.work "first-get" in
  Proc.rm_rf first_dir;
  let store = C.Diskcache.open_store first_dir in
  let path = C.Diskcache.entry_path store "k" in
  Proc.mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc "stale\nentry\n");
  let first_get_ms = median_ms (fun () -> ignore (C.Diskcache.get store "k")) 1 in
  let exec_ms = median_ms (fun () -> ignore (Proc.run cfg.fgc [ "check"; "-e"; "0" ])) 10 in
  let prelude_ms =
    median_ms (fun () -> ignore (S.of_config S.Config.(with_standard_prelude default))) 5
  in
  (* Replay passes.  The replay session [s] and its end-to-end twin
     [s2] see the same programs in the same order, so their caches are
     in the same state; which of the two runs a program first
     alternates, so neither side is always the one a just-run twin
     warmed up. *)
  let k =
    { lookups = 0; hits = 0; misses = 0; cc = 0; interp_steps = 0; feval_steps = 0;
      unit_hits = 0; unit_misses = 0; evictions = 0; programs = 0 }
  in
  let warm = Array.length inp.warmup > 0 in
  let twins () = (S.of_config scfg, S.of_config scfg) in
  let warm_twins =
    lazy
      (let s, s2 = twins () in
       Array.iter
         (fun (p : Inputs.program) ->
           let file = p.Inputs.name in
           ignore (S.run_full ~file s p.Inputs.source);
           ignore (S.run_full ~file s2 p.Inputs.source))
         inp.warmup;
       (s, s2))
  in
  let pass programs =
    let s, s2 = if warm then Lazy.force warm_twins else twins () in
    let u0 = S.cache_stats s in
    Array.iteri
      (fun i p ->
        let f, payload =
          if i mod 2 = 0 then
            let f = replay_one k s p in
            (f, e2e s2 p)
          else
            let payload = e2e s2 p in
            (replay_one k s p, payload)
        in
        check p payload;
        Option.iter backends f;
        protocol ~prelude:inp.prelude (i + 1) p payload)
      programs;
    let u1 = S.cache_stats s in
    k.unit_hits <- k.unit_hits + u1.C.Unit.s_hits - u0.C.Unit.s_hits;
    k.unit_misses <- k.unit_misses + u1.C.Unit.s_misses - u0.C.Unit.s_misses;
    k.evictions <- k.evictions + u1.C.Unit.s_evictions - u0.C.Unit.s_evictions
  in
  if warm then ignore (Lazy.force warm_twins);
  let t0 = now () in
  let passes = ref 1 in
  pass programs;
  while now () -. t0 < 0.4 *. cfg.seconds do
    pass (inp.pass ());
    incr passes
  done;
  (* The daemon's request handler, in-process, on a worker as warm as
     the workload's. *)
  let h = Fg_server.Handler.create () in
  Fg_server.Handler.warm h;
  let request i p = Workloads.run_request ~prelude:inp.prelude p (i + 1) in
  Array.iteri (fun i p -> ignore (Fg_server.Handler.handle_safe h (request i p))) inp.warmup;
  Array.iteri
    (fun i p ->
      let req = request i p in
      ignore (span "handler" (fun () -> Fg_server.Handler.handle_safe h req)))
    programs;
  (* The workspace service on up to 22 of the programs as documents. *)
  let docs = Array.sub programs 0 (min 22 (Array.length programs)) in
  let ws = W.create () in
  Array.iteri
    (fun i (p : Inputs.program) ->
      ignore
        (W.open_doc ws ~name:(Printf.sprintf "%d:%s" i p.Inputs.name) ~version:1
           ~prelude:inp.prelude ~global_models:false ~backend:C.Backend.Dict p.Inputs.source))
    docs;
  let query = Inputs.query_stream ~seed:cfg.seed docs in
  Array.iteri
    (fun i (p : Inputs.program) ->
      let name = Printf.sprintf "%d:%s" i p.Inputs.name in
      let text = Bytes.of_string p.Inputs.source in
      let ds = Inputs.edit_digits p.Inputs.source in
      let version = ref 1 in
      for e = 0 to min 4 (2 * Array.length ds) - 1 do
        let off = ds.(e / 2) in
        let c = if e mod 2 = 0 then Inputs.bump (Bytes.get text off) else p.Inputs.source.[off] in
        Bytes.set text off c;
        incr version;
        match
          span "workspace.change" (fun () ->
              W.change_doc ws ~name ~version:!version
                (W.Edits [ { W.e_start = off; e_len = 1; e_text = String.make 1 c } ]))
        with
        | Ok payload -> if e mod 2 = 1 then check p payload
        | Error e -> Workloads.record t ~file:p.Inputs.name (Some [ e.W.ws_code ])
      done;
      for _ = 1 to 4 do
        let q, off, hover = query () in
        let name = Printf.sprintf "%d:%s" q docs.(q).Inputs.name in
        ignore
          (if hover then span "workspace.hover" (fun () -> W.hover ws ~name ~offset:off)
           else span "workspace.completion" (fun () -> W.completion ws ~name ~offset:off))
      done)
    docs;
  (* The disk tier: a store whose reads and writes are timed, attached
     to a cold cache (writes) and then to a second cold cache (reads). *)
  let disk_dir = Filename.concat cfg.work "disk" in
  Proc.rm_rf disk_dir;
  let base = C.Unit.disk_store (C.Diskcache.open_store disk_dir) in
  let timed =
    {
      base with
      C.Unit.st_get = (fun key -> span "diskcache.get" (fun () -> base.C.Unit.st_get key));
      st_put = (fun key v -> span "diskcache.put" (fun () -> base.C.Unit.st_put key v));
    }
  in
  for _ = 1 to 2 do
    let cache = C.Unit.create_cache () in
    C.Unit.set_stores cache [ timed ];
    let s = S.of_config ~cache scfg in
    Array.iter (fun (p : Inputs.program) -> ignore (S.run_full ~file:p.Inputs.name s p.Inputs.source)) programs
  done;
  (* The daemon, as warm as the workload's: queue wait from its stats,
     served latency from here. *)
  let d = Proc.start_daemon ~fgc:cfg.fgc ~socket:(Workloads.socket cfg) in
  let c = Proc.connect d in
  let serve progs ~more ~on_done =
    let i = ref 0 in
    Workloads.closed_loop c ~window:2
      ~next:(fun () ->
        let p = progs.(!i mod Array.length progs) in
        incr i;
        (Workloads.run_request ~prelude:inp.prelude p, p))
      ~more:(fun () -> more !i)
      ~on_done
  in
  let check_served (p : Inputs.program) r =
    Workloads.record t ~file:p.Inputs.name (Workloads.check_response p r)
  in
  serve inp.warmup ~more:(fun i -> i < Array.length inp.warmup) ~on_done:(fun p r _ -> check_served p r);
  let served = ref [] in
  let t0 = now () in
  serve programs
    ~more:(fun i -> i < Array.length programs || now () -. t0 < 0.15 *. cfg.seconds)
    ~on_done:(fun p r ms ->
      served := ms :: !served;
      check_served p r);
  let stats = Client.stats c in
  Client.close c;
  Proc.stop_daemon d;
  let queue_wait key =
    match Json.of_string stats.Protocol.r_payload with
    | Ok j -> (
        match Option.bind (Json.mem "queue_wait" j) (Json.mem key) with
        | Some (Json.Float x) -> x
        | Some (Json.Int x) -> float_of_int x
        | _ -> nan)
    | Error _ -> nan
  in
  let one_ok, race, speedup =
    let o =
      Proc.run ~timeout:batch_timeout Sys.executable_name
        [ "batch-child"; "--workload"; workload; "--seed"; string_of_int cfg.seed; "--root"; cfg.root;
          "--scale"; Printf.sprintf "%h" cfg.scale ]
    in
    match Scanf.sscanf o.Proc.out "%B %d %h %h" (fun ok race one_s many_s -> (ok, race, one_s /. many_s)) with
    | r when o.Proc.code = 0 -> r
    | _ | (exception (Scanf.Scan_failure _ | End_of_file | Failure _)) ->
        Workloads.record t ~file:"(batch)"
          (Some [ Printf.sprintf "batch-child exit %d within %g s" o.Proc.code batch_timeout ]);
        (false, 0, nan)
  in
  (* Everything per program, from the spans. *)
  let self = Spans.self_times () in
  let n = float_of_int (max 1 k.programs) in
  let per name = fst (self name) /. n in
  let per_call name = let ms, c = self name in ms /. float_of_int (max 1 c) in
  let parse = per "parse" and check_all = per "check" in
  let layers = [ parse; check_all -. parse; per "theorems"; per "interp"; per "feval"; per "render" ] in
  let e2e_ms = per "e2e" in
  let handler_ms = per_call "handler" in
  let served_ms = List.fold_left ( +. ) 0. !served /. float_of_int (max 1 (List.length !served)) in
  let ratio a b = if a + b = 0 then 1. else float_of_int a /. float_of_int (a + b) in
  let metrics =
    [
      ("process.exec_ms", exec_ms);
      ("session.prelude_ms", prelude_ms);
      ("parse.ms", parse);
      ("check.ms", check_all -. parse);
      ("check.model_lookups", float_of_int k.lookups /. n);
      ("check.resolve_hit_ratio", ratio k.hits k.misses);
      ("check.cc_rebuilds", float_of_int k.cc /. n);
      ("unit.hit_ratio", ratio k.unit_hits k.unit_misses);
      ("unit.evictions", float_of_int k.evictions);
      ("diskcache.get_ms", per_call "diskcache.get");
      ("diskcache.put_ms", per_call "diskcache.put");
      ("diskcache.first_get_ms", first_get_ms);
      ("theorems.ms", per "theorems");
      ("interp.ms", per "interp");
      ("interp.steps", float_of_int k.interp_steps /. n);
      ("feval.ms", per "feval");
      ("feval.steps", float_of_int k.feval_steps /. n);
      ("specialize.stencil.ms", per "specialize.stencil");
      ("specialize.hybrid.ms", per "specialize.hybrid");
      ("spec_oracle.stencil.ms", per "spec_oracle.stencil");
      ("spec_oracle.hybrid.ms", per "spec_oracle.hybrid");
      ("render.ms", per "render");
      ("protocol.encode_us", per_call "protocol.encode" *. 1000.);
      ("protocol.decode_us", per_call "protocol.decode" *. 1000.);
      ("pool.queue_wait_mean_ms", queue_wait "mean_ms");
      ("pool.queue_wait_max_ms", queue_wait "max_ms");
      ("handler.ms", handler_ms);
      ("workspace.change_ms", per_call "workspace.change");
      ("workspace.hover_ms", per_call "workspace.hover");
      ("workspace.completion_ms", per_call "workspace.completion");
      ("batch.domain_speedup", speedup);
      ("batch.race_failures", float_of_int race);
      ("trace.e2e_ms", e2e_ms);
      ("trace.coverage_frac", List.fold_left ( +. ) 0. layers /. e2e_ms);
      ("trace.served_ms", served_ms);
      ("trace.served_unattributed_frac", 1. -. (handler_ms /. served_ms));
    ]
  in
  Workloads.finish t ~setup:[] ~metrics
    ~details:
      [
        ("replay_passes", Json.Int !passes);
        ("replayed_programs", Json.Int k.programs);
        ("served_requests", Json.Int (List.length !served));
        ("batch_one_domain_ok", Json.Bool one_ok);
      ]
