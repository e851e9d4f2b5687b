(* Metric names and units, BENCH files, and the comparison of two sets
   of runs. *)

open Fg_util

(* (name, unit, better) — BENCHMARK.json lists the same, which a test
   checks. *)
let end_to_end =
  [
    ("setup_s", "s", "lower");
    ("cpu_ms", "ms", "lower");
    ("aux_cpu_ms", "ms", "lower");
    ("peak_rss_mb", "MB", "lower");
  ]

let per_layer =
  [
    ("process.exec_ms", "ms", "lower");
    ("session.prelude_ms", "ms", "lower");
    ("parse.ms", "ms", "lower");
    ("check.ms", "ms", "lower");
    ("check.model_lookups", "count", "lower");
    ("check.resolve_hit_ratio", "ratio", "higher");
    ("check.cc_rebuilds", "count", "lower");
    ("unit.hit_ratio", "ratio", "higher");
    ("unit.evictions", "count", "lower");
    ("diskcache.get_ms", "ms", "lower");
    ("diskcache.put_ms", "ms", "lower");
    ("diskcache.first_get_ms", "ms", "lower");
    ("theorems.ms", "ms", "lower");
    ("interp.ms", "ms", "lower");
    ("interp.steps", "count", "lower");
    ("feval.ms", "ms", "lower");
    ("feval.steps", "count", "lower");
    ("specialize.stencil.ms", "ms", "lower");
    ("specialize.hybrid.ms", "ms", "lower");
    ("spec_oracle.stencil.ms", "ms", "lower");
    ("spec_oracle.hybrid.ms", "ms", "lower");
    ("render.ms", "ms", "lower");
    ("protocol.encode_us", "us", "lower");
    ("protocol.decode_us", "us", "lower");
    ("pool.queue_wait_mean_ms", "ms", "lower");
    ("pool.queue_wait_max_ms", "ms", "lower");
    ("handler.ms", "ms", "lower");
    ("workspace.change_ms", "ms", "lower");
    ("workspace.hover_ms", "ms", "lower");
    ("workspace.completion_ms", "ms", "lower");
    ("batch.domain_speedup", "ratio", "higher");
    ("batch.race_failures", "count", "lower");
    ("trace.e2e_ms", "ms", "lower");
    ("trace.coverage_frac", "ratio", "higher");
    ("trace.served_ms", "ms", "lower");
    ("trace.served_unattributed_frac", "ratio", "lower");
  ]

let unit_of table name =
  match List.find_opt (fun (n, _, _) -> n = name) table with
  | Some (_, u, _) -> u
  | None -> invalid_arg ("unlisted metric " ^ name)

let metrics_json table ms =
  Json.Obj
    (List.map
       (fun (name, v) ->
         if not (Float.is_finite v) then failwith (name ^ " was not measured");
         (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of table name)) ]))
       ms)

(* The line the benchmark contract reads: the last one on stdout. *)
let result_line table (r : Workloads.result) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.Workloads.correct);
         ("attempted", Json.Int r.Workloads.attempted);
         ("failed", Json.Int r.Workloads.failed);
         ("metrics", metrics_json table r.Workloads.metrics);
       ])

let read_json path =
  match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> Some j
  | Error _ -> None
  | exception Sys_error _ -> None

(* Write [fields] into [dir]/BENCH_<workload>.json, keeping the fields a
   run of the other kind wrote there (a traced run adds [layers] to the
   untraced run's file).  Canonical: keys sorted. *)
let write ~dir ~workload fields =
  Proc.mkdir_p dir;
  let path = Filename.concat dir ("BENCH_" ^ workload ^ ".json") in
  let kept =
    match read_json path with
    | Some (Json.Obj old) when Json.str_field "workload" (Json.Obj old) = Some workload ->
        List.filter (fun (k, _) -> not (List.mem_assoc k fields)) old
    | _ -> []
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (Json.sort_keys (Json.Obj (kept @ fields))));
      output_char oc '\n')

(* ---------------------------------------------------------------- *)
(* compare                                                           *)

type run = { workload : string; seed : int; digest : string; values : (string * float) list }

let run_of_json j =
  match (Json.str_field "workload" j, Json.int_field "seed" j, Json.mem "metrics" j) with
  | Some workload, Some seed, Some (Json.Obj ms) ->
      let values =
        List.filter_map
          (fun (name, m) ->
            match Json.mem "value" m with
            | Some (Json.Float v) -> Some (name, v)
            | Some (Json.Int v) -> Some (name, float_of_int v)
            | _ -> None)
          ms
      in
      Some
        {
          workload;
          seed;
          digest = Option.value ~default:"" (Json.str_field "inputs_digest" j);
          values;
        }
  | _ -> None

(* Every BENCH record under [path]: a directory tree of BENCH files, or
   one file holding a record or a list of them (results/raw/). *)
let rec load path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.concat_map (fun f -> load (Filename.concat path f))
  else if Filename.check_suffix path ".json" then
    match read_json path with
    | Some (Json.List records) -> List.filter_map run_of_json records
    | Some record -> Option.to_list (run_of_json record)
    | None -> []
  else []

(* Bounds from BENCHMARK.json: (name, better, bound). *)
let bounds benchmark =
  match read_json benchmark with
  | Some j -> (
      match Json.mem "end_to_end" j with
      | Some (Json.List ms) ->
          List.filter_map
            (fun m ->
              match (Json.str_field "name" m, Json.str_field "better" m, Json.mem "bound" m) with
              | Some n, Some b, Some (Json.Float x) -> Some (n, b, x)
              | Some n, Some b, Some (Json.Int x) -> Some (n, b, float_of_int x)
              | _ -> None)
            ms
      | _ -> [])
  | None -> []

type verdict = Gain | Regression | Unresolved | Unchanged

let verdict_name = function
  | Gain -> "gain"
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

(* The rule for claiming a change, per metric and workload:
   a gain needs the new side to win at least 9/10 of the seed-paired
   runs and the medians to differ by more than the old side's
   interquartile range (or every new run to beat every old run); a
   regression is a median worse by more than the bound; where either
   side's spread is wider than the bound the metric is unresolved,
   unless every new run is worse than every old one. *)
let judge ~better ~bound olds news pairs =
  let sign = if better = "lower" then 1. else -1. in
  let worse a b = sign *. (a -. b) > 0. in
  let mo = Stats.median olds and mn = Stats.median news in
  let q1, q3 = Stats.quartiles olds in
  let wins = List.length (List.filter (fun (o, n) -> worse o n) pairs) in
  let all_better = List.for_all (fun n -> List.for_all (fun o -> worse o n) olds) news in
  let all_worse = List.for_all (fun n -> List.for_all (fun o -> worse n o) olds) news in
  let noisy = Float.max (Stats.iqr_frac olds) (Stats.iqr_frac news) > bound in
  let worse_frac = sign *. (mn -. mo) /. mo in
  let v =
    if all_better
       || (pairs <> [] && 10 * wins >= 9 * List.length pairs && worse mo mn
          && Float.abs (mn -. mo) > q3 -. q1)
    then Gain
    else if worse_frac > bound && ((not noisy) || all_worse) then Regression
    else if noisy then Unresolved
    else Unchanged
  in
  (v, mo, mn, wins)

let compare ~benchmark old_path new_path =
  let olds = load old_path and news = load new_path in
  let workloads = List.sort_uniq String.compare (List.map (fun r -> r.workload) (olds @ news)) in
  let keyset rs w =
    List.sort compare (List.filter_map (fun r -> if r.workload = w then Some (r.seed, r.digest) else None) rs)
  in
  let mismatched = List.filter (fun w -> keyset olds w <> keyset news w) workloads in
  if olds = [] || news = [] then begin
    prerr_endline "compare: no BENCH records on one side";
    2
  end
  else if mismatched <> [] then begin
    Printf.eprintf
      "compare: the two sides did not measure the same inputs (seeds or inputs_digest differ) on: %s\n"
      (String.concat ", " mismatched);
    2
  end
  else begin
    let regressions = ref 0 in
    Printf.printf "%-13s %-17s %12s %7s %12s %7s %8s %6s  %s\n" "workload" "metric" "old median"
      "spread" "new median" "spread" "change" "wins" "verdict";
    List.iter
      (fun w ->
        let side rs = List.filter (fun r -> r.workload = w) rs in
        let o = side olds and n = side news in
        List.iter
          (fun (name, better, bound) ->
            let vals rs = List.filter_map (fun r -> List.assoc_opt name r.values) rs in
            let pairs =
              List.filter_map
                (fun ro ->
                  match List.find_opt (fun rn -> rn.seed = ro.seed) n with
                  | Some rn -> (
                      match (List.assoc_opt name ro.values, List.assoc_opt name rn.values) with
                      | Some a, Some b -> Some (a, b)
                      | _ -> None)
                  | None -> None)
                o
            in
            if vals o <> [] && vals n <> [] then begin
              let v, mo, mn, wins = judge ~better ~bound (vals o) (vals n) pairs in
              if v = Regression then incr regressions;
              Printf.printf "%-13s %-17s %12.4g %7.3f %12.4g %7.3f %+7.1f%% %3d/%-2d  %s\n" w name mo
                (Stats.iqr_frac (vals o)) mn (Stats.iqr_frac (vals n))
                (100. *. (mn -. mo) /. mo) wins (List.length pairs) (verdict_name v)
            end)
          (bounds benchmark))
      workloads;
    if !regressions > 0 then 1 else 0
  end
