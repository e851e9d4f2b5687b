(* The benchmark spine: one harness for the five end-to-end workloads,
   the traced per-layer replay, and the comparison of two sets of runs.

     spine.exe [run] [--workload W] [--seed N] [--seconds S] [--out DIR]
     spine.exe trace [--workload W] [--seed N] [--seconds S] [--out DIR]
                     [--trace-out FILE]
     spine.exe --workload W --seed N --seconds S --trace 0|1
     spine.exe compare OLD NEW [--benchmark FILE]
     spine.exe --smoke
     spine.exe batch-child --workload W --seed N [--scale X]   (used by trace)

   Run it from the repository root after building bin/fgc.exe (run.sh
   does both).  Each workload prints its metrics as "name value unit"
   lines and then, as the last line, one JSON object with "correct",
   "attempted", "failed" and "metrics".  With --out DIR the run also
   writes DIR/BENCH_<workload>.json.  Exits 1 when an output was wrong. *)

open Benchspine
open Fg_util

let usage () =
  prerr_endline
    "usage: spine.exe [run|trace] [--workload W] [--seed N] [--seconds S] [--trace 0|1]\n\
    \                 [--out DIR] [--trace-out FILE] [--root DIR] [--fgc PATH] [--smoke] [--scale X]\n\
    \       spine.exe compare OLD NEW [--benchmark FILE]";
  exit 2

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable out : string option;
  mutable trace_out : string option;
  mutable root : string;
  mutable fgc : string option;
  mutable smoke : bool;
  mutable scale : float;
}

let parse args =
  let o =
    {
      workloads = Inputs.workloads;
      seed = 1;
      seconds = 12.;
      traced = false;
      out = None;
      trace_out = None;
      root = ".";
      fgc = None;
      smoke = false;
      scale = 1.;
    }
  in
  let number conv s = try conv s with Failure _ -> usage () in
  let rec go = function
    | [] -> ()
    | "run" :: rest -> go rest
    | "trace" :: rest ->
        o.traced <- true;
        go rest
    | "--workload" :: w :: rest ->
        if not (List.mem w Inputs.workloads) then usage ();
        o.workloads <- [ w ];
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- number int_of_string n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- number float_of_string s;
        go rest
    | "--trace" :: t :: rest ->
        o.traced <- (match t with "0" -> false | "1" -> true | _ -> usage ());
        go rest
    | "--out" :: d :: rest ->
        o.out <- Some d;
        go rest
    | "--trace-out" :: f :: rest ->
        o.trace_out <- Some f;
        go rest
    | "--root" :: d :: rest ->
        o.root <- d;
        go rest
    | "--fgc" :: p :: rest ->
        o.fgc <- Some p;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--scale" :: x :: rest ->
        o.scale <- number float_of_string x;
        go rest
    | _ -> usage ()
  in
  go args;
  o

(* A run that saw a failure runs again, up to three times in all: fgc's
   daemons and batch domains have failed intermittently (README.md).
   Every failure of every attempt stays listed, and a fault that
   repeats on each attempt is still reported as failed.  An attempt
   starts again only if one more of the same length still ends before
   the deadline. *)
let attempts = 3

(* One workload's wall-clock budget, set-ups, retries and all: the
   benchmark contract stops a run after 180 s, build included. *)
let time_limit = 100.

let measure ~traced (cfg : Workloads.config) workload =
  let rec go k earlier =
    let started = Proc.now () in
    Proc.rm_rf cfg.Workloads.work;
    Proc.mkdir_p cfg.Workloads.work;
    Spans.recorded := [];
    let r =
      try if traced then Layers.run cfg workload else Workloads.run cfg workload
      with e ->
        Proc.kill_all ();
        {
          Workloads.correct = false;
          attempted = 1;
          failed = 1;
          failures = [ { Verdict.file = "(run)"; got = [ Printexc.to_string e ] } ];
          metrics = [];
          details = [];
        }
    in
    let failures = earlier @ r.Workloads.failures in
    let now = Proc.now () in
    if r.Workloads.failed = 0 || k = attempts || now +. (now -. started) > cfg.Workloads.deadline then
      { r with failures; details = ("retried_runs", Json.Int (k - 1)) :: r.Workloads.details }
    else go (k + 1) failures
  in
  go 1 []

let config o ~work =
  {
    Workloads.root = o.root;
    fgc = Option.value o.fgc ~default:(Filename.concat o.root "_build/default/bin/fgc.exe");
    work;
    seed = o.seed;
    seconds = o.seconds;
    deadline = Proc.now () +. time_limit;
    scale = o.scale;
  }

let one o ~work ~traced workload =
  let cfg = config o ~work in
  let r = Fun.protect ~finally:(fun () -> Proc.rm_rf work) (fun () -> measure ~traced cfg workload) in
  (* A failed run may have missed a metric; it reports the rest. *)
  let r =
    if r.Workloads.correct then r
    else { r with Workloads.metrics = List.filter (fun (_, v) -> Float.is_finite v) r.Workloads.metrics }
  in
  let table = if traced then Bench.per_layer else Bench.end_to_end in
  List.iter
    (fun (name, v) -> Printf.printf "%s %.6g %s\n" name v (Bench.unit_of table name))
    r.Workloads.metrics;
  let digest = Inputs.digest ~root:o.root ~seed:o.seed workload in
  Option.iter
    (fun dir ->
      let summary =
        [
          ("seed", Json.Int o.seed);
          ("seconds", Json.Float o.seconds);
          ("inputs_digest", Json.Str digest);
          ("correct", Json.Bool r.Workloads.correct);
          ("attempted", Json.Int r.Workloads.attempted);
          ("failed", Json.Int r.Workloads.failed);
          ("failures", Json.List (List.map Verdict.failure_json r.Workloads.failures));
          ("metrics", Bench.metrics_json table r.Workloads.metrics);
          ("details", Json.Obj r.Workloads.details);
        ]
      in
      Bench.write ~dir ~workload
        (("workload", Json.Str workload)
        :: (if traced then [ ("layers", Json.Obj summary) ] else summary)))
    o.out;
  Option.iter
    (fun f ->
      Out_channel.with_open_bin f (fun oc -> output_string oc (Json.to_string (Spans.to_chrome ()))))
    (if traced then o.trace_out else None);
  print_endline (Bench.result_line table r);
  r.Workloads.correct

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Terminated from outside: exit through at_exit, which stops the
     daemons this run started and removes its temporary directory. *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ];
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: old_dir :: new_dir :: rest ->
      let benchmark =
        match rest with
        | [] -> "BENCHMARK.json"
        | [ "--benchmark"; f ] -> f
        | _ -> usage ()
      in
      exit (Bench.compare ~benchmark old_dir new_dir)
  | "batch-child" :: args ->
      (* The traced run's domain-parallelism measurement (Layers). *)
      let o = parse args in
      Layers.batch_child (config o ~work:"") (List.hd o.workloads)
  | args ->
      let o = parse args in
      let work = Filename.concat o.root ".spine_work" in
      at_exit (fun () ->
          Proc.kill_all ();
          Proc.rm_rf work);
      let ok =
        if o.smoke then begin
          (* Every workload at about 1% of its size, untraced and traced. *)
          o.seconds <- 0.2;
          o.scale <- 0.01;
          List.for_all
            (fun traced -> List.for_all (one o ~work ~traced) Inputs.workloads)
            [ false; true ]
        end
        else begin
          Proc.spin 2.;
          List.for_all (one o ~work ~traced:o.traced) o.workloads
        end
      in
      exit (if ok then 0 else 1)
