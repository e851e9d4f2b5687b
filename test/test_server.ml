(* Integration tests for the fgc serve daemon: an in-process server on
   a private unix socket, exercised through the real client — batch
   byte-identity against one-shot `fgc run --format=json`, deadlines,
   protocol violations, backpressure, stats, and graceful drain. *)

open Fg_server

let fgc = "../bin/fgc.exe"
let programs_dir = "../programs"

let contains ~needle s = Astring_contains.contains ~needle s

let next_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgtest_%d_%d.sock" (Unix.getpid ()) !n)

(* Start a daemon, run [f] against it, then drain it and join the
   accept thread — every test path tears the server down fully, so a
   hung drain shows up as a hung test. *)
let with_server ?(workers = 2) ?(max_queue = 64) ?request_timeout_ms f =
  let path = next_sock () in
  let cfg =
    {
      (Server.default_config (`Unix path)) with
      workers;
      max_queue;
      request_timeout_ms;
    }
  in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown srv;
      Thread.join th;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f (`Unix path : Server.address) srv)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let one_shot_json path =
  let out_file = Filename.temp_file "fgc_oneshot" ".json" in
  let cmd =
    Printf.sprintf "%s run -p --format=json %s > %s 2>/dev/null"
      (Filename.quote fgc) (Filename.quote path) (Filename.quote out_file)
  in
  ignore (Sys.command cmd);
  let out = read_file out_file in
  Sys.remove out_file;
  out

let corpus_files () =
  Sys.readdir programs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fg")
  |> List.sort String.compare
  |> List.map (Filename.concat programs_dir)

(* The ISSUE acceptance bar: every corpus file served by the daemon
   must come back byte-identical to one-shot `fgc run --format=json`
   (the served payload is the one-shot stdout minus print_endline's
   newline). *)
let test_batch_byte_identical () =
  let files = corpus_files () in
  Alcotest.(check bool) "corpus non-empty" true (files <> []);
  with_server (fun addr _srv ->
      let reqs =
        List.mapi
          (fun i f ->
            Protocol.request ~id:(i + 1) ~file:f ~source:(read_file f)
              ~prelude:true Protocol.Run)
          files
      in
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let resps = Client.batch c reqs in
          Alcotest.(check int) "one response per file" (List.length files)
            (List.length resps);
          List.iter2
            (fun f (r : Protocol.response) ->
              let expected = one_shot_json f in
              Alcotest.(check string) (f ^ " byte-identical") expected
                (r.Protocol.r_payload ^ "\n"))
            files resps))

let test_single_requests () =
  with_server (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let r = Client.run_file c ~file:"<t>" "1 + 2 * 3" in
          Alcotest.(check string) "run ok" "ok"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "value" true
            (contains ~needle:"\"value_str\": \"7\"" r.Protocol.r_payload);
          let r =
            Client.request c
              (Protocol.request ~id:2 ~file:"<t>" ~source:"fun (x : int) => x"
                 Protocol.Check)
          in
          Alcotest.(check string) "check ok" "ok"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "type" true
            (contains ~needle:"fn(int) -> int" r.Protocol.r_payload);
          let r =
            Client.request c
              (Protocol.request ~id:3 ~file:"<t>" ~source:"1 + true"
                 Protocol.Run)
          in
          Alcotest.(check string) "type error is Failed" "error"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "diagnostics present" true
            (contains ~needle:"\"diagnostics\"" r.Protocol.r_payload)))

let test_timeout () =
  with_server (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          (* timeout_ms = 0: the deadline has already passed when the
             worker dequeues, so this deterministically times out. *)
          let r = Client.run_file c ~timeout_ms:0 ~file:"<t>" "1 + 1" in
          Alcotest.(check string) "status" "timeout"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "FG0801 payload" true
            (contains ~needle:"FG0801" r.Protocol.r_payload);
          (* the connection and the worker both survive *)
          let r = Client.run_file c ~file:"<t>" "2 + 2" in
          Alcotest.(check string) "after timeout" "ok"
            (Protocol.status_name r.Protocol.r_status)))

let test_protocol_violations () =
  with_server (fun addr _srv ->
      (* Garbage JSON in a well-formed frame: FG0803, connection
         survives. *)
      let c = Client.connect addr in
      Client.send_raw_frame c "this is not json";
      let r = Client.read_response c in
      Alcotest.(check string) "garbage status" "protocol_error"
        (Protocol.status_name r.Protocol.r_status);
      Alcotest.(check bool) "FG0803" true
        (contains ~needle:"FG0803" r.Protocol.r_payload);
      let r = Client.run_file c ~file:"<t>" "1 + 1" in
      Alcotest.(check string) "conn survives garbage" "ok"
        (Protocol.status_name r.Protocol.r_status);
      Client.close c;
      (* Version mismatch: FG0804. *)
      let c = Client.connect addr in
      Client.send_raw_frame c "{\"v\": 999, \"id\": 5, \"kind\": \"stats\"}";
      let r = Client.read_response c in
      Alcotest.(check string) "version status" "protocol_error"
        (Protocol.status_name r.Protocol.r_status);
      Alcotest.(check bool) "FG0804" true
        (contains ~needle:"FG0804" r.Protocol.r_payload);
      Client.close c;
      (* Oversized length prefix: FG0806 and the server drops the
         connection (framing is unrecoverable). *)
      let c = Client.connect addr in
      Client.send_raw_bytes c "\xFF\xFF\xFF\xFF";
      let r = Client.read_response c in
      Alcotest.(check string) "oversized status" "protocol_error"
        (Protocol.status_name r.Protocol.r_status);
      Alcotest.(check bool) "FG0806" true
        (contains ~needle:"FG0806" r.Protocol.r_payload);
      (match Client.read_response c with
      | exception Client.Client_error _ -> ()
      | _ -> Alcotest.fail "server should close after a framing error");
      Client.close c)

let test_overload () =
  (* One worker, queue of one: a burst sent without reading responses
     must overflow the queue into explicit overload responses, never
     unbounded buffering. *)
  with_server ~workers:1 ~max_queue:1 (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let n = 64 in
          for i = 1 to n do
            Client.send c
              (Protocol.request ~id:i ~file:"<burst>" ~source:"1 + 1"
                 Protocol.Run)
          done;
          let statuses =
            List.init n (fun _ ->
                (Client.read_response c).Protocol.r_status)
          in
          let count st =
            List.length (List.filter (fun s -> s = st) statuses)
          in
          Alcotest.(check int) "every request answered" n
            (List.length statuses);
          Alcotest.(check bool) "burst sheds load" true
            (count Protocol.Overload > 0);
          Alcotest.(check bool) "some requests served" true
            (count Protocol.Ok_ > 0));
      (* The client's batch mode retries overloads, so the same
         constrained server still completes a full batch. *)
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let reqs =
            List.init 50 (fun i ->
                Protocol.request ~id:(i + 1) ~file:"<retry>" ~source:"1 + 1"
                  Protocol.Run)
          in
          let resps = Client.batch ~window:8 c reqs in
          List.iter
            (fun (r : Protocol.response) ->
              Alcotest.(check string)
                (Printf.sprintf "retried request %d" r.Protocol.r_id)
                "ok"
                (Protocol.status_name r.Protocol.r_status))
            resps))

let test_stats () =
  with_server (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          ignore (Client.run_file c ~file:"<t>" "1 + 1");
          let r = Client.stats c in
          Alcotest.(check string) "stats ok" "ok"
            (Protocol.status_name r.Protocol.r_status);
          match Fg_util.Json.of_string r.Protocol.r_payload with
          | Error e -> Alcotest.failf "stats payload not JSON: %s" e
          | Ok j ->
              List.iter
                (fun k ->
                  Alcotest.(check bool) (k ^ " present") true
                    (Fg_util.Json.mem k j <> None))
                [ "uptime_ms"; "enqueued"; "queue_depth"; "protocol_errors";
                  "connections_opened"; "requests"; "latency"; "queue_wait";
                  "workspace" ];
              (* the run we just did is visible in the counters *)
              let enqueued =
                match Fg_util.Json.int_field "enqueued" j with
                | Some n -> n
                | None -> -1
              in
              Alcotest.(check bool) "enqueued >= 1" true (enqueued >= 1)))

(* The stats "backends" object lists every backend and counts only
   requests that ran one: stats requests (served by the pool, not a
   handler) leave every count at 0, and one run counts once. *)
let test_stats_backends () =
  with_server ~workers:1 (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let backends () =
            match
              Fg_util.Json.of_string (Client.stats c).Protocol.r_payload
            with
            | Ok j -> (
                match Fg_util.Json.mem "backends" j with
                | Some (Fg_util.Json.Obj kvs) ->
                    List.map
                      (fun (k, v) ->
                        match v with
                        | Fg_util.Json.Int n -> (k, n)
                        | _ -> Alcotest.failf "backend %s count" k)
                      kvs
                | _ -> Alcotest.fail "stats payload lacks backends")
            | Error e -> Alcotest.failf "stats payload not JSON: %s" e
          in
          ignore (backends ());
          ignore (backends ());
          let all =
            List.map Fg_core.Backend.to_string Fg_core.Backend.all
            |> List.sort String.compare
          in
          Alcotest.(check (list (pair string int)))
            "stats requests run no backend"
            (List.map (fun b -> (b, 0)) all)
            (backends ());
          ignore (Client.run_file c ~file:"<t>" "1 + 1");
          Alcotest.(check (list (pair string int)))
            "one run counts once under dict"
            (List.map (fun b -> (b, if b = "dict" then 1 else 0)) all)
            (backends ())))

(* The v5 document kinds over a real socket: lifecycle, splice edits,
   warm/one-shot byte identity, a hover answer, and the FG0807/FG0808
   service errors with their exit-relevant Failed status. *)
let test_workspace_kinds () =
  with_server (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let source = "let x = 1 in x + 1" in
          let r = Client.doc_open c ~name:"w.fg" source in
          Alcotest.(check string) "open ok" "ok"
            (Protocol.status_name r.Protocol.r_status);
          let oneshot = (Client.run_file c ~file:"w.fg" source).Protocol.r_payload in
          Alcotest.(check string) "open = run bytes" oneshot
            r.Protocol.r_payload;
          (* splice the literal: x = 2, so the program now runs to 3 *)
          let r =
            Client.doc_change c ~version:2 ~name:"w.fg"
              (`Edits [ (8, 1, "2") ])
          in
          Alcotest.(check string) "change ok" "ok"
            (Protocol.status_name r.Protocol.r_status);
          let edited = (Client.run_file c ~file:"w.fg" "let x = 2 in x + 1").Protocol.r_payload in
          Alcotest.(check string) "edited = run bytes" edited
            r.Protocol.r_payload;
          let d = Client.doc_diagnostics c ~name:"w.fg" in
          Alcotest.(check string) "diag replays last payload" edited
            d.Protocol.r_payload;
          let h = Client.hover c ~name:"w.fg" ~offset:13 in
          Alcotest.(check bool) "hover finds int" true
            (contains ~needle:"\"type\": \"int\"" h.Protocol.r_payload);
          (* stale version: refused, document untouched *)
          let r =
            Client.doc_change c ~version:2 ~name:"w.fg" (`Text "1")
          in
          Alcotest.(check string) "stale is failed" "error"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "stale is FG0808" true
            (contains ~needle:"FG0808" r.Protocol.r_payload);
          let r = Client.doc_close c ~name:"w.fg" in
          Alcotest.(check string) "close ok" "ok"
            (Protocol.status_name r.Protocol.r_status);
          let r = Client.doc_diagnostics c ~name:"w.fg" in
          Alcotest.(check string) "closed is failed" "error"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "closed is FG0807" true
            (contains ~needle:"FG0807" r.Protocol.r_payload)))

let test_shutdown_drain () =
  let path = next_sock () in
  let cfg = Server.default_config (`Unix path) in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  let c = Client.connect (`Unix path) in
  let r = Client.run_file c ~file:"<t>" "1 + 1" in
  Alcotest.(check string) "pre-shutdown run" "ok"
    (Protocol.status_name r.Protocol.r_status);
  let r = Client.shutdown c in
  Alcotest.(check string) "shutdown ack" "ok"
    (Protocol.status_name r.Protocol.r_status);
  Alcotest.(check bool) "draining ack" true
    (contains ~needle:"draining" r.Protocol.r_payload);
  Client.close c;
  (* run returns: the drain completed and every worker was joined *)
  Thread.join th;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_sustained_batch () =
  (* ~1000 requests through one connection: exercises pipelining,
     id-matching under out-of-order completion, and warm-session reuse
     across a long stream. *)
  with_server (fun addr _srv ->
      let n = 1000 in
      let reqs =
        List.init n (fun i ->
            Protocol.request ~id:(i + 1) ~file:"<s>"
              ~source:(Printf.sprintf "%d + %d" i (i + 1))
              Protocol.Run)
      in
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let resps = Client.batch c reqs in
          Alcotest.(check int) "all answered" n (List.length resps);
          List.iteri
            (fun i (r : Protocol.response) ->
              Alcotest.(check int) "order preserved" (i + 1) r.Protocol.r_id;
              Alcotest.(check string) "ok"
                "ok"
                (Protocol.status_name r.Protocol.r_status);
              let needle =
                Printf.sprintf "\"value_str\": \"%d\"" ((2 * i) + 1)
              in
              Alcotest.(check bool) "right answer" true
                (contains ~needle r.Protocol.r_payload))
            resps))

(* Overload backoff: exponential, capped, jittered, and reproducible
   from a seed. *)
let test_backoff () =
  let open Fg_util in
  let collect seed n =
    let rec go rng attempt acc =
      if attempt = n then List.rev acc
      else
        let d, rng = Client.backoff_ms rng ~attempt in
        go rng (attempt + 1) (d :: acc)
    in
    go (Prng.make seed) 0 []
  in
  let a = collect 42 12 and a' = collect 42 12 in
  Alcotest.(check (list int)) "same seed, same delays" a a';
  (* every delay sits inside its attempt's jitter window, and the
     ceiling stops growing at the cap *)
  List.iteri
    (fun attempt d ->
      let top = min 200 (2 * (1 lsl min attempt 7)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [%d, %d] (got %d)" attempt (top / 2)
           top d)
        true
        (d >= max 1 (top / 2) && d <= top))
    a;
  (* distinct seeds diverge (the jitter is real) *)
  Alcotest.(check bool) "different seeds differ" true (collect 1 12 <> a)

(* A request's own profile only steers the guided backend's stencils;
   it must not key a new warm session.  Twenty guided requests, each
   with its own profile, build the prelude at most once on one handler,
   and each answer is the bytes a fresh handler gives the same request
   (the profiles alternate between marking the program's instantiation
   hot and not, so a handler that ignored a request's profile would
   answer differently). *)
let test_profiles_share_session () =
  let open Fg_util in
  let source = "accumulate[int](cons[int](1, cons[int](2, nil[int])))" in
  let request i =
    let hot = if i mod 2 = 0 then "accumulate[int]" else "count[int]" in
    let profile =
      { Profile.empty with p_programs = i; p_instantiations = [ (hot, 5) ] }
    in
    Protocol.request ~id:i ~file:"t.fg" ~source ~prelude:true
      ~backend:Fg_core.Backend.Guided ~profile Protocol.Run
  in
  let fresh =
    List.init 20 (fun i -> Handler.handle_safe (Handler.create ()) (request i))
  in
  let handler = Handler.create () in
  let before = Telemetry.snapshot () in
  let served = List.init 20 (fun i -> Handler.handle_safe handler (request i)) in
  let builds = (Telemetry.diff (Telemetry.snapshot ()) before).prelude_builds in
  Alcotest.(check bool)
    (Printf.sprintf "at most one prelude build (got %d)" builds)
    true (builds <= 1);
  List.iteri
    (fun i ((st, payload), (st', payload')) ->
      Alcotest.(check string)
        (Printf.sprintf "request %d status" i)
        (Protocol.status_name st) (Protocol.status_name st');
      Alcotest.(check string)
        (Printf.sprintf "request %d payload" i)
        payload payload')
    (List.combine fresh served);
  Alcotest.(check bool) "the profiles steer the answers" true
    (snd (List.nth served 0) <> snd (List.nth served 1))

let suite =
  [
    Alcotest.test_case "single requests" `Quick test_single_requests;
    Alcotest.test_case "overload backoff schedule" `Quick test_backoff;
    Alcotest.test_case "deadline timeout" `Quick test_timeout;
    Alcotest.test_case "protocol violations" `Quick test_protocol_violations;
    Alcotest.test_case "overload and retry" `Quick test_overload;
    Alcotest.test_case "stats endpoint" `Quick test_stats;
    Alcotest.test_case "stats backends" `Quick test_stats_backends;
    Alcotest.test_case "workspace document kinds" `Quick
      test_workspace_kinds;
    Alcotest.test_case "graceful shutdown" `Quick test_shutdown_drain;
    Alcotest.test_case "profiles share a warm session" `Quick
      test_profiles_share_session;
    Alcotest.test_case "batch byte-identical to one-shot" `Slow
      test_batch_byte_identical;
    Alcotest.test_case "sustained 1000-request batch" `Slow
      test_sustained_batch;
  ]
