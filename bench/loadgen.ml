(* Load generator for the fgc serve daemon.

   Starts a daemon in-process on a private unix socket, streams the
   whole programs/ corpus through ONE batch connection until the
   request target is reached, and checks every response byte-for-byte
   against the one-shot `fgc run --format=json` output for its file.
   Then it times the one-shot binary on a sample of the same corpus
   and reports the throughput ratio — the daemon must beat one-shot by
   at least 5x (it amortizes process startup and the prelude across
   requests; one-shot pays both per program).

   Run:  dune exec bench/loadgen.exe            (10,000 requests)
         LOADGEN_REQUESTS=300 dune exec bench/loadgen.exe   (CI smoke)

   Exits nonzero on any byte mismatch, failed request, or a speedup
   below the 5x bar. *)

open Fg_server

let requests_target =
  match Sys.getenv_opt "LOADGEN_REQUESTS" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 10_000)
  | None -> 10_000

let one_shot_sample =
  match Sys.getenv_opt "LOADGEN_ONESHOT_SAMPLE" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 20)
  | None -> 20

let programs_dir =
  if Sys.file_exists "programs" then "programs"
  else if Sys.file_exists "../programs" then "../programs"
  else failwith "loadgen: cannot find the programs/ corpus from the cwd"

let fgc_exe =
  let candidates =
    [ "_build/default/bin/fgc.exe"; "../bin/fgc.exe"; "bin/fgc.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> failwith "loadgen: cannot find fgc.exe (build the project first)"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus =
  Sys.readdir programs_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".fg")
  |> List.sort String.compare
  |> List.map (fun f ->
         let path = Filename.concat programs_dir f in
         (path, read_file path))

let one_shot_json path =
  let out_file = Filename.temp_file "loadgen" ".json" in
  let cmd =
    Printf.sprintf "%s run -p --format=json %s > %s 2>/dev/null"
      (Filename.quote fgc_exe) (Filename.quote path)
      (Filename.quote out_file)
  in
  ignore (Sys.command cmd);
  let out = read_file out_file in
  Sys.remove out_file;
  out

let () =
  if corpus = [] then failwith "loadgen: empty corpus";
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgc_loadgen_%d.sock" (Unix.getpid ()))
  in
  let cfg = Server.default_config (`Unix socket) in
  let srv = Server.create cfg in
  let th = Thread.create Server.run srv in
  let failures = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Server.request_shutdown srv;
      Thread.join th;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      (* Expected bytes per corpus file, captured once from one-shot. *)
      let expected =
        List.map (fun (path, _) -> (path, one_shot_json path)) corpus
      in
      let n_files = List.length corpus in
      let files = Array.of_list corpus in
      let reqs =
        List.init requests_target (fun i ->
            let path, source = files.(i mod n_files) in
            Protocol.request ~id:(i + 1) ~file:path ~source ~prelude:true
              Protocol.Run)
      in
      Printf.printf "loadgen: %d requests over %d corpus files, %d workers\n%!"
        requests_target n_files cfg.Server.workers;
      let c = Client.connect (`Unix socket) in
      let t0 = Unix.gettimeofday () in
      let resps = Client.batch c reqs in
      let daemon_s = Unix.gettimeofday () -. t0 in
      (* Every response byte-identical to its file's one-shot output
         (the served payload is the one-shot stdout minus the trailing
         newline print_endline adds). *)
      List.iteri
        (fun i (r : Protocol.response) ->
          let path, _ = files.(i mod n_files) in
          let want = List.assoc path expected in
          if r.Protocol.r_payload ^ "\n" <> want then begin
            incr failures;
            if !failures <= 3 then
              Printf.eprintf "loadgen: MISMATCH on request %d (%s)\n%!"
                r.Protocol.r_id path
          end)
        resps;
      if List.length resps <> requests_target then begin
        incr failures;
        Printf.eprintf "loadgen: %d responses for %d requests\n%!"
          (List.length resps) requests_target
      end;
      (* Server-side latency distribution. *)
      (match
         Fg_util.Json.of_string (Client.stats c).Protocol.r_payload
       with
      | Ok j -> (
          match Fg_util.Json.mem "latency" j with
          | Some lat ->
              let f k =
                match Fg_util.Json.mem k lat with
                | Some (Fg_util.Json.Float x) -> x
                | Some (Fg_util.Json.Int x) -> float_of_int x
                | _ -> nan
              in
              Printf.printf
                "daemon  : %.2fs total, %.0f req/s, latency p50=%.2fms \
                 p95=%.2fms p99=%.2fms\n%!"
                daemon_s
                (float_of_int requests_target /. daemon_s)
                (f "p50_ms") (f "p95_ms") (f "p99_ms")
          | None -> ())
      | Error e -> Printf.eprintf "loadgen: stats not JSON: %s\n%!" e);
      Client.close c;
      (* One-shot baseline: a fresh process (and a fresh prelude) per
         program, which is exactly what the daemon amortizes away. *)
      let sample = min one_shot_sample requests_target in
      let t0 = Unix.gettimeofday () in
      for i = 0 to sample - 1 do
        let path, _ = files.(i mod n_files) in
        ignore (one_shot_json path)
      done;
      let oneshot_s = Unix.gettimeofday () -. t0 in
      let oneshot_rate = float_of_int sample /. oneshot_s in
      let daemon_rate = float_of_int requests_target /. daemon_s in
      let speedup = daemon_rate /. oneshot_rate in
      Printf.printf
        "one-shot: %.2fs for %d runs, %.0f req/s\nspeedup : %.1fx\n%!"
        oneshot_s sample oneshot_rate speedup;
      if speedup < 5.0 then begin
        incr failures;
        Printf.eprintf "loadgen: speedup %.1fx is below the 5x bar\n%!"
          speedup
      end);
  if !failures > 0 then begin
    Printf.eprintf "loadgen: FAILED (%d problem(s))\n%!" !failures;
    exit 1
  end;
  print_endline "loadgen: all responses byte-identical, speedup bar met"
