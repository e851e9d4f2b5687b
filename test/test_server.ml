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
let with_server ?(workers = 2) ?(max_queue = 64) ?request_timeout_ms
    ?(path = next_sock ()) f =
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

(* A run that outlives a 50 ms deadline by several times over: about
   200 ms of checking and evaluation. *)
let slow_run ~id =
  Protocol.request ~id ~file:"slow.fg"
    ~source:(Fg_core.Genprog.accumulate_workload 15000)
    Protocol.Run

(* A request without its own [timeout_ms] runs under the server's
   default, and FG0801 names that limit. *)
let test_timeout_names_server_limit () =
  with_server ~workers:1 ~request_timeout_ms:50 (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let r = Client.request c (slow_run ~id:1) in
          Alcotest.(check string) "status" "timeout"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "names the server's limit" true
            (contains ~needle:"limit 50ms" r.Protocol.r_payload)))

(* A shutdown queued behind a request that outlives the deadline is
   past its own deadline when a worker takes it, and still starts the
   drain: the server blocks for queue space so that a shutdown cannot
   be dropped, and a deadline must not drop it either.  The wait for
   [Server.run] to return is bounded, so a daemon that keeps serving
   fails the test instead of hanging it. *)
let test_shutdown_past_deadline () =
  let path = next_sock () in
  let cfg =
    { (Server.default_config (`Unix path)) with
      workers = 1;
      request_timeout_ms = Some 50 }
  in
  let srv = Server.create cfg in
  let returned = Atomic.make false in
  let th =
    Thread.create (fun () -> Server.run srv; Atomic.set returned true) ()
  in
  let c = Client.connect (`Unix path) in
  Client.send c (slow_run ~id:1);
  Client.send c (Protocol.request ~id:2 Protocol.Shutdown);
  let statuses =
    List.init 2 (fun _ -> Client.read_response c)
    |> List.sort (fun a b -> compare a.Protocol.r_id b.Protocol.r_id)
    |> List.map (fun r -> Protocol.status_name r.Protocol.r_status)
  in
  Client.close c;
  let give_up = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get returned)) && Unix.gettimeofday () < give_up do
    Thread.delay 0.01
  done;
  let drained = Atomic.get returned in
  Server.request_shutdown srv;
  Thread.join th;
  if Sys.file_exists path then Sys.remove path;
  Alcotest.(check (list string)) "slow run times out, shutdown is acked"
    [ "timeout"; "ok" ] statuses;
  Alcotest.(check bool) "Server.run returned on the shutdown" true drained

(* A stats request queued behind a run that outlives the deadline is
   past its own deadline when a worker takes it, and still answers: it
   reads counters and runs no program, so a busy daemon can always be
   looked into. *)
let test_stats_past_deadline () =
  with_server ~workers:1 ~request_timeout_ms:50 (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Client.send c (slow_run ~id:1);
          Client.send c (Protocol.request ~id:2 Protocol.Stats);
          let resps =
            List.init 2 (fun _ -> Client.read_response c)
            |> List.sort (fun a b -> compare a.Protocol.r_id b.Protocol.r_id)
          in
          Alcotest.(check (list string)) "slow run times out, stats answer"
            [ "timeout"; "ok" ]
            (List.map (fun r -> Protocol.status_name r.Protocol.r_status) resps);
          Alcotest.(check bool) "the stats payload" true
            (contains ~needle:{|"workers": 1|}
               (List.nth resps 1).Protocol.r_payload)))

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
      (* The retired fuzz fleet kinds are unknown kinds: FG0803. *)
      List.iter
        (fun kind ->
          Client.send_raw_frame c
            (Printf.sprintf "{\"v\": 6, \"id\": 6, \"kind\": \"%s\"}" kind);
          let r = Client.read_response c in
          Alcotest.(check string) (kind ^ " status") "protocol_error"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) (kind ^ " is FG0803, unknown kind") true
            (contains ~needle:"FG0803" r.Protocol.r_payload
            && contains ~needle:"unknown kind" r.Protocol.r_payload))
        [ "fuzz_one"; "fuzz_batch" ];
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
              (* the exact top-level schema, so no key appears or
                 vanishes unnoticed *)
              let keys = function
                | Some (Fg_util.Json.Obj kvs) -> List.map fst kvs
                | _ -> Alcotest.fail "stats object missing"
              in
              Alcotest.(check (list string)) "top-level keys"
                [ "connections_opened"; "enqueued"; "latency"; "max_queue";
                  "protocol_errors"; "queue_depth"; "queue_wait";
                  "request_timeout_ms"; "requests"; "unit_cache";
                  "uptime_ms"; "workers"; "workspace" ]
                (keys (Some j));
              (* one requests entry per wire kind *)
              Alcotest.(check (list string)) "request kinds"
                [ "check"; "completion"; "definition"; "doc_change";
                  "doc_close"; "doc_diagnostics"; "doc_open"; "hover"; "run";
                  "shutdown"; "stats"; "translate" ]
                (keys (Fg_util.Json.mem "requests" j));
              (* the unit-cache counters summed over the workers *)
              Alcotest.(check (list string)) "unit_cache totals"
                [ "evictions"; "hits"; "misses"; "size" ]
                (keys
                   (Option.bind
                      (Fg_util.Json.mem "unit_cache" j)
                      (Fg_util.Json.mem "totals")));
              (* the run we just did is visible in the counters *)
              let enqueued =
                match Fg_util.Json.int_field "enqueued" j with
                | Some n -> n
                | None -> -1
              in
              Alcotest.(check bool) "enqueued >= 1" true (enqueued >= 1)))

(* Stats report the queue the pool really has: a capacity below 1 is
   clamped where the worker count is, and read back as 1. *)
let test_stats_max_queue_clamped () =
  with_server ~max_queue:0 (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          let r = Client.stats c in
          match Fg_util.Json.of_string r.Protocol.r_payload with
          | Error e -> Alcotest.failf "stats payload not JSON: %s" e
          | Ok j ->
              Alcotest.(check (option int)) "max_queue" (Some 1)
                (Fg_util.Json.int_field "max_queue" j)))

(* A server that accepts nothing and never answers: with a receive
   timeout, the client's read fails as a Client_error, not as a raw
   Unix error. *)
let test_client_timeout () =
  let path = next_sock () in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX path);
      Unix.listen lfd 1;
      let c = Client.connect ~rcv_timeout:0.2 (`Unix path) in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          match Client.stats c with
          | _ -> Alcotest.fail "a server that never answers answered"
          | exception Client.Client_error _ -> ()))

(* A failed connect closes its socket: after 100 of them to a path
   nothing listens on, the lowest free descriptor is still the same. *)
let test_connect_leaks_nothing () =
  let lowest_free () =
    let fd = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
    Unix.close fd;
    fd
  in
  let path = next_sock () in
  let before = lowest_free () in
  for _ = 1 to 100 do
    match Client.connect (`Unix path) with
    | c ->
        Client.close c;
        Alcotest.fail "connected to a path nothing listens on"
    | exception Client.Client_error _ -> ()
  done;
  Alcotest.(check bool) "no descriptor leaked" true (lowest_free () = before)

(* A connection leaves the server when its reader finishes: once the
   first 200 connect/run/close cycles have warmed it, 2,000 more leave
   the server's reachable words within 10% of their level. *)
let test_connections_leave () =
  with_server ~workers:1 (fun addr srv ->
      let words_after n =
        for _ = 1 to n do
          let c = Client.connect addr in
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              ignore (Client.run_file c ~file:"<t>" "1 + 1"))
        done;
        (* let the last readers see their end of file *)
        Thread.delay 0.1;
        Obj.reachable_words (Obj.repr srv)
      in
      let warm = words_after 200 in
      let later = words_after 2000 in
      Alcotest.(check bool)
        (Printf.sprintf "reachable words %d after 200, %d after 2,200" warm
           later)
        true
        (float_of_int later <= 1.1 *. float_of_int warm))

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
          (* a malformed edit: refused, document and version untouched *)
          let r =
            Client.doc_change c ~version:3 ~name:"w.fg"
              (`Edits [ (8, 1, "5"); (-4, 2, "x") ])
          in
          Alcotest.(check string) "malformed edit is a protocol error"
            "protocol_error"
            (Protocol.status_name r.Protocol.r_status);
          Alcotest.(check bool) "names the edit" true
            (contains ~needle:"FG0803" r.Protocol.r_payload
            && contains ~needle:"edit 1 is not" r.Protocol.r_payload);
          let d = Client.doc_diagnostics c ~name:"w.fg" in
          Alcotest.(check string) "document untouched" edited
            d.Protocol.r_payload;
          let r =
            Client.doc_change c ~version:3 ~name:"w.fg" (`Text source)
          in
          Alcotest.(check string) "version 3 still ahead" "ok"
            (Protocol.status_name r.Protocol.r_status);
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

(* A daemon takes over its socket path only when it holds a stale
   socket.  A regular file survives byte for byte, and a live daemon
   keeps its socket and its clients: both are the FG1004 configuration
   error, raised before any worker starts. *)
let test_socket_path () =
  let refused path =
    match Server.create (Server.default_config (`Unix path)) with
    | exception Fg_util.Diag.Error d ->
        Alcotest.(check string) "refused with FG1004" "FG1004"
          d.Fg_util.Diag.code
    | srv ->
        Server.request_shutdown srv;
        Server.run srv;
        Alcotest.failf "Server.create took over %s" path
  in
  let path = next_sock () in
  let contents = "not a socket\n" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      refused path;
      Alcotest.(check string) "regular file untouched" contents
        (read_file path));
  let path = next_sock () in
  with_server ~path (fun addr _srv ->
      refused path;
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Alcotest.(check string) "first daemon still answers" "ok"
            (Protocol.status_name (Client.stats c).Protocol.r_status)));
  (* a socket file whose listener is gone: connecting is refused *)
  let path = next_sock () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  with_server ~path (fun addr _srv ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          Alcotest.(check string) "stale socket replaced" "ok"
            (Protocol.status_name (Client.stats c).Protocol.r_status)))

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

(* A warm handler keys sessions on the request's config alone: twenty
   requests of one config (prelude on) through one handler build the
   prelude at most once, and each answer is the bytes a fresh handler
   gives the same request. *)
let test_one_session_per_config () =
  let open Fg_util in
  let request i =
    let source =
      Printf.sprintf "accumulate[int](cons[int](%d, cons[int](2, nil[int])))"
        i
    in
    Protocol.request ~id:i ~file:"t.fg" ~source ~prelude:true Protocol.Run
  in
  let fresh =
    List.init 20 (fun i -> Handler.handle_safe (Handler.create ()) (request i))
  in
  let handler = Handler.create () in
  let before = Telemetry.snapshot () in
  let served =
    List.init 20 (fun i -> Handler.handle_safe handler (request i))
  in
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
    (List.combine fresh served)

let suite =
  [
    Alcotest.test_case "single requests" `Quick test_single_requests;
    Alcotest.test_case "overload backoff schedule" `Quick test_backoff;
    Alcotest.test_case "deadline timeout" `Quick test_timeout;
    Alcotest.test_case "expired request names the server's limit" `Quick
      test_timeout_names_server_limit;
    Alcotest.test_case "shutdown past its deadline still drains" `Quick
      test_shutdown_past_deadline;
    Alcotest.test_case "stats past its deadline still answers" `Quick
      test_stats_past_deadline;
    Alcotest.test_case "protocol violations" `Quick test_protocol_violations;
    Alcotest.test_case "overload and retry" `Quick test_overload;
    Alcotest.test_case "stats endpoint" `Quick test_stats;
    Alcotest.test_case "stats max_queue is the clamped capacity" `Quick
      test_stats_max_queue_clamped;
    Alcotest.test_case "client read timeout" `Quick test_client_timeout;
    Alcotest.test_case "failed connect leaks nothing" `Quick
      test_connect_leaks_nothing;
    Alcotest.test_case "closed connections leave the server" `Quick
      test_connections_leave;
    Alcotest.test_case "workspace document kinds" `Quick
      test_workspace_kinds;
    Alcotest.test_case "graceful shutdown" `Quick test_shutdown_drain;
    Alcotest.test_case "socket path: only a stale socket is replaced" `Quick
      test_socket_path;
    Alcotest.test_case "one warm session per config" `Quick
      test_one_session_per_config;
    Alcotest.test_case "batch byte-identical to one-shot" `Slow
      test_batch_byte_identical;
    Alcotest.test_case "sustained 1000-request batch" `Slow
      test_sustained_batch;
  ]
