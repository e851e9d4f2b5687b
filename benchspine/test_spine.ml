(* Checks of the benchmark spine that need no daemon and no child
   process: the BENCHMARK.json description, input determinism, and the
   output references. *)

open Benchspine
open Fg_util
module C = Fg_core

let root = ".."

let benchmark =
  lazy
    (match Json.of_string (Inputs.read_file (Filename.concat root "BENCHMARK.json")) with
    | Ok j -> j
    | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field k j =
  match Json.mem k j with Some v -> v | None -> Alcotest.failf "missing %S" k

let list k j = match field k j with Json.List l -> l | _ -> Alcotest.failf "%S not a list" k
let str k j = match Json.str_field k j with Some s -> s | None -> Alcotest.failf "%S not a string" k

let keys = function Json.Obj fs -> List.map fst fs | _ -> Alcotest.fail "not an object"

let valid_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let number = function Json.Float x -> x | Json.Int n -> float_of_int n | _ -> nan

let test_description () =
  let b = Lazy.force benchmark in
  Alcotest.(check (list string)) "top-level keys"
    [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]
    (List.sort compare (keys b));
  let e2e = list "end_to_end" b and layers = list "per_layer" b in
  Alcotest.(check bool) "at most 16 end-to-end metrics" true (List.length e2e <= 16);
  Alcotest.(check bool) "at most 128 per-layer metrics" true (List.length layers <= 128);
  let names = List.map (str "name") (e2e @ layers @ list "workloads" b) in
  List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (valid_name n)) names;
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "end-to-end keys" [ "better"; "bound"; "name"; "unit" ]
        (List.sort compare (keys m));
      let bound = number (field "bound" m) in
      Alcotest.(check bool) (str "name" m ^ " bound in (0, 0.25]") true (bound > 0. && bound <= 0.25))
    e2e;
  List.iter
    (fun m ->
      Alcotest.(check (list string)) "per-layer keys" [ "better"; "name"; "unit" ]
        (List.sort compare (keys m)))
    layers;
  let triple m = (str "name" m, str "unit" m, str "better" m) in
  let t3 = Alcotest.(list (triple string string string)) in
  Alcotest.check t3 "end-to-end metrics are the ones the spine prints" Bench.end_to_end
    (List.map triple e2e);
  Alcotest.check t3 "per-layer metrics are the ones the spine prints" Bench.per_layer
    (List.map triple layers);
  let setup = List.find (fun m -> str "name" m = "setup_s") e2e in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun m -> number (field "bound" m) <= number (field "bound" setup)) e2e);
  let workloads = list "workloads" b in
  Alcotest.(check (list string)) "workloads" Inputs.workloads (List.map (str "name") workloads);
  List.iter
    (fun w ->
      let why = str "why" w in
      Alcotest.(check bool) (str "name" w ^ " has a one-line reason") true
        (why <> "" && String.length why <= 200 && not (String.contains why '\n')))
    workloads

let test_digest () =
  List.iter
    (fun w ->
      let d seed = Inputs.digest ~root ~seed w in
      Alcotest.(check string) (w ^ ": same seed, same inputs") (d 1) (d 1);
      Alcotest.(check bool) (w ^ ": another seed, other inputs") true (d 1 <> d 2))
    Inputs.workloads

(* The served/one-shot rendering of a program, produced in-process. *)
let render ?(prelude = true) (p : Inputs.program) =
  let cfg = C.Session.Config.default in
  let cfg = if prelude then C.Session.Config.with_standard_prelude cfg else cfg in
  let s = C.Session.of_config cfg in
  Json.to_string
    (C.Jsonview.json_of_run_report ~file:p.Inputs.name
       (C.Session.run_full ~file:p.Inputs.name s p.Inputs.source))

let test_references () =
  let corpus = Inputs.corpus ~root and errors = Inputs.errors ~root in
  Alcotest.(check int) "22 corpus programs" 22 (List.length corpus);
  Alcotest.(check int) "9 error programs" 9 (List.length errors);
  List.iter
    (fun (p : Inputs.program) ->
      let out = render p in
      Alcotest.(check bool) (p.Inputs.name ^ " meets its reference") true
        (Verdict.check_payload p.Inputs.expect out = None))
    (corpus @ errors);
  (* A deliberately wrong reference must fail the check. *)
  let p = List.hd corpus in
  let wrong =
    match p.Inputs.expect with
    | Inputs.Value v -> Inputs.Value (v ^ "0")
    | e -> e
  in
  Alcotest.(check bool) "a wrong expected value fails" true
    (Verdict.check_payload wrong (render p) <> None);
  let e = List.hd errors in
  Alcotest.(check bool) "a wrong expected code fails" true
    (Verdict.check_payload (Inputs.Codes [ "FG9999" ]) (render e) <> None)

let test_batch_references () =
  List.iter
    (fun (p : Inputs.program) ->
      match p.Inputs.expect with
      | Inputs.Value _ ->
          Alcotest.(check bool) (p.Inputs.name ^ " computes its derived value") true
            (Verdict.check_payload p.Inputs.expect (render ~prelude:false p) = None)
      | _ -> ())
    (Inputs.batch_programs ~seed:1)

let test_literal_digits () =
  let text = "// v2: 10\nlet x1 = 42 in f[t0](x1, 7)" in
  Alcotest.(check (list int)) "only integer literals outside comments" [ 19; 20; 35 ]
    (Array.to_list (Inputs.literal_digits text));
  List.iter
    (fun (p : Inputs.program) ->
      Alcotest.(check bool) (p.Inputs.name ^ " has a literal to edit") true
        (Array.length (Inputs.literal_digits p.Inputs.source) > 0))
    (Inputs.corpus ~root)

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-9)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-9)) "p99 of 1..1000" 990.
    (Stats.percentile (List.init 1000 (fun i -> float_of_int (i + 1))) 99.)

let test_judge () =
  let olds = List.init 10 (fun i -> 100. +. float_of_int i) in
  let shift d = List.map (fun x -> x +. d) olds in
  let verdict news =
    let v, _, _, _ = Bench.judge ~better:"lower" ~bound:0.1 olds news (List.combine olds news) in
    Bench.verdict_name v
  in
  Alcotest.(check string) "every pair faster" "gain" (verdict (shift (-20.)));
  Alcotest.(check string) "median 20% slower" "REGRESSION" (verdict (shift 20.));
  Alcotest.(check string) "within the bound" "unchanged" (verdict (shift 2.));
  let noisy = List.init 10 (fun i -> if i mod 2 = 0 then 80. else 125.) in
  Alcotest.(check string) "spread wider than the bound" "unresolved" (verdict noisy)

(* The CPU-time readings the cost metrics rest on, taken on this
   process. *)
let test_cpu_readings () =
  let pid = Unix.getpid () in
  let before = Proc.cpu_ms pid and own = Proc.own_cpu_s () in
  let until = Unix.gettimeofday () +. 0.05 in
  while Unix.gettimeofday () < until do () done;
  let spent = Proc.cpu_ms pid -. before in
  Alcotest.(check bool) "schedstat counts a busy 50 ms" true (spent > 10. && spent < 1000.);
  Alcotest.(check bool) "times counts it too" true (Proc.own_cpu_s () -. own > 0.01);
  Alcotest.(check bool) "a peak resident set" true (Proc.hwm_kb pid > 0)

let () =
  Alcotest.run "benchspine"
    [
      ( "spine",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_description;
          Alcotest.test_case "inputs digest" `Quick test_digest;
          Alcotest.test_case "references" `Quick test_references;
          Alcotest.test_case "batch references" `Quick test_batch_references;
          Alcotest.test_case "literal digits" `Quick test_literal_digits;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_judge;
          Alcotest.test_case "CPU readings" `Quick test_cpu_readings;
        ] );
    ]
