(* Tests for the synthetic scaling families used by the benchmarks:
   each family must produce well-typed programs at several sizes, with
   the documented values, so the benchmark numbers measure real work. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let check_family name family sizes expected_of =
  List.iter
    (fun n ->
      let src = family n in
      match Session.run_result ~file:(Printf.sprintf "%s/%d" name n) (session ()) src with
      | Ok out ->
          Alcotest.(check string)
            (Printf.sprintf "%s n=%d" name n)
            (expected_of n)
            (Interp.flat_to_string out.value)
      | Error d ->
          Alcotest.failf "%s n=%d: %s" name n (Fg_util.Diag.to_string d))
    sizes

let test_refinement_chain () =
  check_family "refinement_chain" Genprog.refinement_chain [ 1; 2; 5; 10; 20 ]
    (fun _ -> "42")

(* The diamond sweep: each size runs the whole pipeline, so the value,
   the System F re-check of Theorems 1-2 and the agreement of the two
   evaluators are checked at every depth, 16 included. *)
let test_refinement_diamond () =
  let sizes = [ 1; 2; 4; 6; 8; 12; 16 ] in
  check_family "refinement_diamond" Genprog.refinement_diamond sizes
    (fun _ -> "1");
  List.iter
    (fun n ->
      match
        Theorems.check_agreement_result
          (Parser.exp_of_string (Genprog.refinement_diamond n))
      with
      | Ok a ->
          Alcotest.(check string)
            (Printf.sprintf "refinement_diamond n=%d translated value" n)
            "1"
            (Interp.flat_to_string a.Theorems.translated)
      | Error d ->
          Alcotest.failf "refinement_diamond n=%d: %s" n
            (Fg_util.Diag.to_string d))
    sizes

(* A work bound for the diamond, in words allocated rather than time so
   that it is deterministic: checking walks each distinct instantiation
   of the lattice once and allocates about 1.7 million words here;
   walking every refinement path allocated 2.4 billion (a whole
   `fgc run` process at depth 16). *)
let test_diamond_work_bound () =
  let src = Genprog.refinement_diamond 16 in
  let s = session () in
  (* [Gc.counters] leaves out what still sits in the minor heap, so
     empty it before each reading. *)
  let allocated () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = allocated () in
  (match Session.run_result ~file:"diamond/16" s src with
  | Ok out ->
      Alcotest.(check string) "value" "1" (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "diamond 16: %s" (Fg_util.Diag.to_string d));
  let words = allocated () -. before in
  if words > 6e6 then
    Alcotest.failf "depth-16 diamond allocated %.0f words (bound 6000000)" words

(* The parameterized-model chains (B6), pinned byte for byte: for each
   size, the value, the beta steps of both evaluators and the MD5 of the
   printed System F translation, as recorded before the chain's
   where-clause plans, model lookups and type operations were made
   linear in its depth.  (Fresh names drawn after a reused plan are
   pinned in test_parameterized's "fresh names after a reused plan":
   none shows in these translations.) *)
let chain_pins =
  (* family, size, value, direct steps, translated steps, MD5 *)
  [
    ("param_depth", 1, "true", 6, 7, "fcb0fb35db56338fe5231140d169cfec");
    ("param_depth", 2, "true", 8, 10, "41359360d9471804a94c65031151b412");
    ("param_depth", 5, "true", 14, 19, "f1ed6ad52b3cb363c5daea6bfe12e6d1");
    ("param_depth", 20, "true", 44, 64, "d4936d04608fa55ee72f4f565dd41fc3");
    ("param_depth", 60, "true", 124, 184, "acf575b8f70220209e906f25a2425d4f");
    ("fanout", 1, "3", 15, 16, "102b53d7217a3e77ae833b62a16807ce");
    ("fanout", 8, "3", 309, 394, "71c296f4492dab859f38a861ac6341c0");
    ("fanout", 30, "3", 3147, 4453, "175e6f179fcc82091baeed8b5ad59c4e");
  ]

let test_chains_pinned () =
  List.iter
    (fun (family, n, value, direct, translated, md5) ->
      let src =
        if family = "param_depth" then Genprog.param_depth n
        else Genprog.instantiation_fanout ~reps:3 n
      in
      let what = Printf.sprintf "%s %d" family n in
      match Session.run_result ~file:what (session ()) src with
      | Error d -> Alcotest.failf "%s: %s" what (Fg_util.Diag.to_string d)
      | Ok out ->
          Alcotest.(check string) (what ^ " value") value
            (Interp.flat_to_string out.value);
          Alcotest.(check int) (what ^ " direct steps") direct out.direct_steps;
          Alcotest.(check int) (what ^ " translated steps") translated
            out.translated_steps;
          let printed = Fmt.str "%a" Fg_systemf.Pretty.pp_exp out.f_exp in
          Alcotest.(check string) (what ^ " translation MD5") md5
            (Digest.to_hex (Digest.string printed)))
    chain_pins

let test_many_models () =
  check_family "many_models" Genprog.many_models [ 1; 10; 50 ] (fun _ -> "0")

let test_wide_where () =
  check_family "wide_where" Genprog.wide_where [ 1; 5; 20 ] (fun n ->
      string_of_int (n * (n - 1) / 2))

let test_same_type_chain () =
  check_family "same_type_chain" Genprog.same_type_chain [ 2; 10; 40 ]
    (fun _ -> "8")

let test_assoc_chain () =
  check_family "assoc_chain" Genprog.assoc_chain [ 1; 4; 10 ] (fun _ -> "1")

let test_let_chain () =
  check_family "let_chain" Genprog.let_chain [ 1; 5; 25 ] (fun n ->
      (* sum of 2i for i in 0..n-1 *)
      string_of_int (n * (n - 1)))

let test_workloads_agree () =
  (* the three accumulate workloads (FG, System F higher-order,
     monomorphic F) compute the same sum *)
  let n = 25 in
  let expected = string_of_int (n * (n - 1) / 2) in
  let fg = Session.run (session ()) (Genprog.accumulate_workload n) in
  Alcotest.(check string) "FG workload" expected
    (Interp.flat_to_string fg.value);
  let f_ho =
    Fg_systemf.Eval.run_value
      (Fg_systemf.Parser.exp_of_string (Genprog.accumulate_workload_systemf n))
  in
  Alcotest.(check string) "F higher-order workload" expected
    (Fg_systemf.Eval.value_to_string f_ho);
  let f_mono =
    Fg_systemf.Eval.run_value
      (Fg_systemf.Parser.exp_of_string (Genprog.accumulate_workload_mono n))
  in
  Alcotest.(check string) "F monomorphic workload" expected
    (Fg_systemf.Eval.value_to_string f_mono)

let test_dict_depth_in_translation () =
  (* the refinement chain really produces deeply nested dictionary
     projections: depth n means an n-step nth chain somewhere *)
  let f = Check.translate (Parser.exp_of_string (Genprog.refinement_chain 6)) in
  let s = Fg_systemf.Pretty.exp_to_flat_string f in
  (* path of five 0-projections to reach C0's dictionary from C5's *)
  Alcotest.(check bool) "deep projection chain" true
    (Astring_contains.contains
       ~needle:"nth (nth (nth (nth (nth" s)

let suite =
  [
    Alcotest.test_case "refinement chain" `Quick test_refinement_chain;
    Alcotest.test_case "refinement diamond" `Quick test_refinement_diamond;
    Alcotest.test_case "diamond work bound" `Quick test_diamond_work_bound;
    Alcotest.test_case "parameterized chains pinned" `Quick test_chains_pinned;
    Alcotest.test_case "many models" `Quick test_many_models;
    Alcotest.test_case "wide where" `Quick test_wide_where;
    Alcotest.test_case "same-type chain" `Quick test_same_type_chain;
    Alcotest.test_case "assoc chain" `Quick test_assoc_chain;
    Alcotest.test_case "let chain" `Quick test_let_chain;
    Alcotest.test_case "workloads agree" `Quick test_workloads_agree;
    Alcotest.test_case "dictionary depth visible" `Quick
      test_dict_depth_in_translation;
  ]
