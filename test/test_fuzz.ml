(* The fuzzing subsystem: generator determinism, a live oracle pass, the
   shrinker, the report shape, and replay of the committed minimized
   counterexamples under programs/fuzz_regressions/. *)

open Fg_core
module Json = Fg_util.Json

let regressions_dir = "../programs/fuzz_regressions"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Every committed counterexample must (now) pass the full pipeline,
   produce the value stated in its header, and round-trip through the
   printer — replaying the shrunk artifact of each fixed bug. *)
let test_regressions () =
  let files =
    Sys.readdir regressions_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.sort compare
  in
  Alcotest.(check bool) "regression corpus is non-empty" true (files <> []);
  let sess = Session.of_config Session.Config.default in
  List.iter
    (fun f ->
      let src = read_file (Filename.concat regressions_dir f) in
      let expected =
        String.split_on_char '\n' src
        |> List.find_map (fun l ->
               let prefix = "// expected value: " in
               if String.length l > String.length prefix
                  && String.sub l 0 (String.length prefix) = prefix
               then
                 Some
                   (String.sub l (String.length prefix)
                      (String.length l - String.length prefix))
               else None)
      in
      let expected =
        match expected with
        | Some v -> v
        | None -> Alcotest.failf "%s: missing '// expected value:' header" f
      in
      let out = Session.run ~file:f sess src in
      Alcotest.(check string) (f ^ " value") expected
        (Interp.flat_to_string out.Session.value);
      let ast = Parser.exp_of_string ~file:f src in
      let reparsed = Parser.exp_of_string (Pretty.exp_to_string ast) in
      Alcotest.(check bool) (f ^ " round-trips") true
        (Ast.exp_equal ast reparsed))
    files

(* Generation is a pure function of (seed, index): same inputs, same
   program; different seeds, different programs. *)
let test_generate_deterministic () =
  let cfg = { Fuzz.default_config with seed = 11; size = 40 } in
  for i = 0 to 9 do
    let a = Fuzz.generate cfg ~index:i in
    let b = Fuzz.generate cfg ~index:i in
    Alcotest.(check string)
      (Printf.sprintf "program %d reproducible" i)
      a.Fuzz.p_source b.Fuzz.p_source
  done;
  let a = Fuzz.generate cfg ~index:0 in
  let b = Fuzz.generate { cfg with seed = 12 } ~index:0 in
  Alcotest.(check bool) "different seeds differ" true
    (a.Fuzz.p_source <> b.Fuzz.p_source)

(* A small live pass: every generated program satisfies all three
   oracles, and the run is reproducible end to end. *)
let test_run_clean () =
  let cfg = { Fuzz.default_config with Fuzz.seed = 5; count = 15; size = 25; mutants = 2 } in
  let r = Fuzz.run cfg in
  Alcotest.(check int) "generated" 15 r.Fuzz.r_generated;
  Alcotest.(check int) "mutants run" 30 r.Fuzz.r_mutants_run;
  (match r.Fuzz.r_failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "oracle %s failed on #%d: %s\n%s"
        (Fuzz.oracle_name f.Fuzz.f_oracle)
        f.Fuzz.f_index f.Fuzz.f_message f.Fuzz.f_source);
  let r' = Fuzz.run cfg in
  Alcotest.(check string) "report reproducible"
    (Json.to_string (Fuzz.report_to_json r))
    (Json.to_string (Fuzz.report_to_json r'))

(* The greedy shrinker reaches the smallest subterm that still
   satisfies the failure predicate. *)
let test_shrink () =
  let ast = Parser.exp_of_string "iadd(imult(2, 3), iadd(10, 20))" in
  let mentions_imult e =
    Fg_util.Strutil.contains ~needle:"imult(" (Pretty.exp_to_string e)
  in
  let shrunk = Fuzz.shrink ~still_fails:mentions_imult ast in
  Alcotest.(check string) "shrinks to the imult call" "imult(2, 3)"
    (Pretty.exp_to_flat_string shrunk);
  (* A predicate nothing smaller satisfies leaves the program alone. *)
  let whole e = Ast.exp_equal e ast in
  let same = Fuzz.shrink ~still_fails:whole ast in
  Alcotest.(check bool) "fixpoint when nothing smaller fails" true
    (Ast.exp_equal same ast)

(* Shrinking a mutant with a declaration stack deletes the unrelated
   declarations. *)
let test_shrink_deletes_decls () =
  let src =
    "concept FzA<t> { m : fn(t) -> t; } in\n\
     model FzA<int> { m = fun (x : int) => x; } in\n\
     let h = 5 in\n\
     iadd(h, imult(2, 3))"
  in
  let ast = Parser.exp_of_string src in
  let mentions_imult e =
    Fg_util.Strutil.contains ~needle:"imult(" (Pretty.exp_to_string e)
  in
  let shrunk = Fuzz.shrink ~still_fails:mentions_imult ast in
  Alcotest.(check string) "declarations deleted" "imult(2, 3)"
    (Pretty.exp_to_flat_string shrunk)

(* The stable report shape documented in docs/LANGUAGE.md. *)
let test_report_json_shape () =
  let cfg = { Fuzz.default_config with Fuzz.seed = 3; count = 2; size = 15; mutants = 1 } in
  let r = Fuzz.run cfg in
  match Fuzz.report_to_json r with
  | Json.Obj fields ->
      Alcotest.(check (list string))
        "top-level keys"
        [ "fuzz"; "generated"; "mutants_run"; "ok"; "failures" ]
        (List.map fst fields);
      (match List.assoc "fuzz" fields with
      | Json.Obj cfg_fields ->
          Alcotest.(check (list string))
            "config keys"
            [ "seed"; "count"; "size"; "mutants" ]
            (List.map fst cfg_fields)
      | _ -> Alcotest.fail "fuzz field is not an object");
      (match List.assoc "ok" fields with
      | Json.Bool b ->
          Alcotest.(check bool) "ok mirrors failures" b
            (r.Fuzz.r_failures = [])
      | _ -> Alcotest.fail "ok field is not a bool")
  | _ -> Alcotest.fail "report is not an object"

(* Corrupted programs must be rejected through the recovering pipeline:
   exercised via a run with mutants enabled above, plus the direct
   guarantee that save_failures writes replayable artifacts. *)
let test_save_failures_layout () =
  let r =
    {
      Fuzz.r_config = { Fuzz.default_config with Fuzz.seed = 9; count = 1; size = 10; mutants = 0 };
      r_generated = 1;
      r_mutants_run = 0;
      r_failures =
        [
          {
            Fuzz.f_index = 0;
            f_origin = Fuzz.Gen;
            f_oracle = Fuzz.Agreement;
            f_message = "synthetic";
            f_source = "iadd(1, 2)";
            f_shrunk = "1";
            f_shrunk_nodes = 1;
          };
        ];
      r_coverage = [];
      r_corpus_size = 0;
      r_corpus_added = 0;
      r_from_corpus = 0;
    }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fg-fuzz-test" in
  let paths = Fuzz.save_failures ~dir r in
  Alcotest.(check int) "one artifact" 1 (List.length paths);
  let path = List.hd paths in
  Alcotest.(check string) "artifact name" "fuzz-9-0-agreement.fg"
    (Filename.basename path);
  let contents = read_file path in
  Alcotest.(check bool) "artifact embeds the original" true
    (Fg_util.Strutil.contains ~needle:"// iadd(1, 2)" contents);
  Sys.remove path

(* Shrinking a corpus-mutated input must not lose the artifact layout:
   same naming scheme, original still embedded, and the origin recorded
   in the header so a replayed failure says where the input came from. *)
let test_save_failures_corpus_origin () =
  let r =
    {
      Fuzz.r_config =
        { Fuzz.default_config with Fuzz.seed = 4; count = 1; guided = true };
      r_generated = 1;
      r_mutants_run = 0;
      r_failures =
        [
          {
            Fuzz.f_index = 3;
            f_origin = Fuzz.Corpus;
            f_oracle = Fuzz.Recovery;
            f_message = "synthetic corpus-mutant failure";
            f_source = "iadd(1, 2)";
            f_shrunk = "1";
            f_shrunk_nodes = 1;
          };
        ];
      r_coverage = [];
      r_corpus_size = 1;
      r_corpus_added = 0;
      r_from_corpus = 1;
    }
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fg-fuzz-test" in
  let paths = Fuzz.save_failures ~dir r in
  Alcotest.(check int) "one artifact" 1 (List.length paths);
  let path = List.hd paths in
  Alcotest.(check string) "artifact name keeps the scheme"
    "fuzz-4-3-recovery.fg" (Filename.basename path);
  let contents = read_file path in
  Alcotest.(check bool) "header records the corpus origin" true
    (Fg_util.Strutil.contains ~needle:"origin: corpus" contents);
  Alcotest.(check bool) "artifact embeds the original" true
    (Fg_util.Strutil.contains ~needle:"// iadd(1, 2)" contents);
  (* ... and the JSON report carries the origin field for the same
     failure (generated-origin failures stay field-free, pinned by
     test_report_json_shape's golden). *)
  Alcotest.(check bool) "report JSON carries the origin" true
    (Fg_util.Strutil.contains ~needle:{|"origin": "corpus"|}
       (Json.to_string (Fuzz.report_to_json r)));
  Sys.remove path

(* ---------------------------------------------------------------- *)
(* Guided mode                                                       *)

module Coverage = Fg_util.Coverage

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let fresh_dir tag =
  let d = Filename.concat (Filename.get_temp_dir_name ()) tag in
  rm_rf d;
  d

(* Guided runs are byte-deterministic: the same seed run twice into
   fresh corpus dirs produces an identical coverage map, an identical
   report JSON, and on-disk corpora that agree entry for entry — the
   loop is sequential and each candidate's coverage delta is exact. *)
let test_guided_deterministic () =
  let d1 = fresh_dir "fg-guided-det-1" and d2 = fresh_dir "fg-guided-det-2" in
  let cfg dir =
    { Fuzz.seed = 21; count = 40; size = 25; mutants = 1; guided = true;
      corpus_dir = Some dir }
  in
  let r1 = Fuzz.run (cfg d1) in
  let r2 = Fuzz.run (cfg d2) in
  Alcotest.(check (list (pair string int)))
    "coverage map identical across runs" r1.Fuzz.r_coverage r2.Fuzz.r_coverage;
  Alcotest.(check string) "report JSON byte-identical across runs"
    (Json.to_string (Fuzz.report_to_json r1))
    (Json.to_string (Fuzz.report_to_json r2));
  Alcotest.(check bool) "the run guided at all" true
    (r1.Fuzz.r_from_corpus > 0 && r1.Fuzz.r_corpus_added > 0);
  let e1 = Fuzz.corpus_load ~dir:d1 and e2 = Fuzz.corpus_load ~dir:d2 in
  Alcotest.(check bool) "corpus is non-empty" true (e1 <> []);
  Alcotest.(check bool) "corpora byte-identical across runs" true (e1 = e2);
  Alcotest.(check int) "corpus size reported" (List.length e1)
    r1.Fuzz.r_corpus_size;
  rm_rf d1;
  rm_rf d2

(* Cold reproduction: starting from an {e empty} corpus, a bounded
   guided run re-reaches every checker/resolution decision point that
   the pinned regression corpus exercises — the guided search doesn't
   depend on a warm corpus to find the interesting parts of the
   checker. *)
let test_guided_cold_repro () =
  let scfg = Session.Config.default in
  let target =
    Sys.readdir regressions_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.concat_map (fun f ->
           let src = read_file (Filename.concat regressions_dir f) in
           let before = Coverage.snapshot () in
           let sess = Session.of_config scfg in
           ignore (Session.run ~file:f sess src);
           Coverage.keys (Coverage.diff (Coverage.snapshot ()) before))
    |> List.filter (fun k ->
           String.starts_with ~prefix:"check." k
           || String.starts_with ~prefix:"resolve." k)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "regressions exercise decision points" true
    (target <> []);
  let dir = fresh_dir "fg-guided-cold" in
  let cfg =
    { Fuzz.seed = 2; count = 150; size = 30; mutants = 0; guided = true;
      corpus_dir = Some dir }
  in
  let r = Fuzz.run cfg in
  let covered = Coverage.keys r.Fuzz.r_coverage in
  let missing = List.filter (fun k -> not (List.mem k covered)) target in
  Alcotest.(check (list string))
    "every regression decision point re-found from cold" [] missing;
  rm_rf dir

(* Guided mode judges a generated candidate exactly as blind mode
   does: the agreement failures it reports among generated candidates
   are blind mode's over the same programs (at seed 2 blind mode
   reports #152, where the interpreter and the translation disagree
   over a shadowed model reached through refinement). *)
let test_guided_agrees_with_blind () =
  let cfg = { Fuzz.default_config with Fuzz.seed = 2; count = 153; mutants = 0 } in
  let generated_agreement (r : Fuzz.report) =
    List.filter_map
      (fun (f : Fuzz.failure) ->
        if f.Fuzz.f_oracle = Fuzz.Agreement && f.Fuzz.f_origin = Fuzz.Gen then
          Some (f.Fuzz.f_index, f.Fuzz.f_message, f.Fuzz.f_shrunk)
        else None)
      r.Fuzz.r_failures
  in
  Alcotest.(check (list (triple int string string)))
    "guided agreement failures on generated candidates = blind's"
    (generated_agreement (Fuzz.run cfg))
    (generated_agreement (Fuzz.run { cfg with Fuzz.guided = true }))

let suite =
  [
    Alcotest.test_case "regression corpus replays" `Quick test_regressions;
    Alcotest.test_case "generation is deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "small run passes all oracles" `Quick test_run_clean;
    Alcotest.test_case "shrinker finds minimal subterm" `Quick test_shrink;
    Alcotest.test_case "shrinker deletes declarations" `Quick
      test_shrink_deletes_decls;
    Alcotest.test_case "report JSON shape" `Quick test_report_json_shape;
    Alcotest.test_case "failure artifact layout" `Quick
      test_save_failures_layout;
    Alcotest.test_case "corpus-origin artifact layout" `Quick
      test_save_failures_corpus_origin;
    Alcotest.test_case "guided run is deterministic" `Quick
      test_guided_deterministic;
    Alcotest.test_case "guided cold reproduction" `Quick
      test_guided_cold_repro;
    Alcotest.test_case "guided judges generated as blind does" `Quick
      test_guided_agrees_with_blind;
  ]
