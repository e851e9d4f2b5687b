(* The reproduction's headline: Theorems 1 and 2 (translation preserves
   typing), checked per-program over the corpus and over randomly
   generated well-typed programs, plus the stronger semantic-agreement
   property between the direct interpreter and the translation. *)

open Fg_core

let test_theorem_on_corpus () =
  (* The full pipeline — theorem check included — over every positive
     entry at once, fanned out across domains by the session batch
     runner (which also exercises its order-stable determinism). *)
  let jobs =
    List.filter_map
      (fun (e : Corpus.entry) ->
        match e.expected with
        | Corpus.Value _ -> Some (e.name, e.source)
        | Corpus.Fails _ -> None)
      Corpus.all
  in
  let s = Session.of_config Session.Config.default in
  let results = Session.run_batch s jobs in
  Alcotest.(check int) "all positive entries ran" (List.length jobs)
    (List.length results);
  List.iter
    (fun (name, r) ->
      match r with
      | Ok (o : Session.outcome) ->
          Alcotest.(check bool) (name ^ ": theorem") true o.theorem_holds
      | Error d ->
          Alcotest.failf "theorem fails on %s: %s" name
            (Fg_util.Diag.to_string d))
    results

let test_agreement_on_corpus () =
  List.iter
    (fun (e : Corpus.entry) ->
      match e.expected with
      | Corpus.Value _ -> (
          match
            Theorems.check_agreement_result (Parser.exp_of_string e.source)
          with
          | Ok _ -> ()
          | Error d ->
              Alcotest.failf "agreement fails on %s: %s" e.name
                (Fg_util.Diag.to_string d))
      | Corpus.Fails _ -> ())
    Corpus.all

let test_theorem_report_fields () =
  let e = Parser.exp_of_string Corpus.fig5_accumulate.source in
  let r = Theorems.check_translation e in
  Alcotest.(check string) "FG type int" "int" (Pretty.ty_to_string r.fg_ty);
  Alcotest.(check string) "F type int" "int"
    (Fg_systemf.Pretty.ty_to_string r.f_ty);
  Alcotest.(check bool) "types alpha-equal" true
    (Fg_systemf.Ast.alpha_equal r.f_ty r.expected_f_ty)

let test_theorem_on_prelude_algorithms () =
  (* each prelude algorithm applied at a ground instantiation, so the
     program type is closed (returning the generic function itself
     would trip the CPT concept-escape side condition) *)
  let l = Prelude.int_list in
  List.iter
    (fun body ->
      let src = Prelude.wrap body in
      match Theorems.check_translation_result (Parser.exp_of_string src) with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "theorem fails on prelude %s: %s" body
            (Fg_util.Diag.to_string d))
    [
      Printf.sprintf "accumulate[int](%s)" (l [ 1; 2 ]);
      Printf.sprintf "accumulate_iter[list int](%s)" (l [ 1 ]);
      Printf.sprintf "count[list int](%s, 1)" (l [ 1 ]);
      Printf.sprintf "contains[list int](%s, 1)" (l [ 1 ]);
      Printf.sprintf "copy[list int, list int](%s, nil[int])" (l [ 1 ]);
      Printf.sprintf "min_element[list int](%s, 9)" (l [ 1 ]);
      Printf.sprintf "equal_ranges[list int, list int](%s, %s)" (l [ 1 ])
        (l [ 1 ]);
      Printf.sprintf
        "merge[list int, list int, list int](%s, %s, nil[int])" (l [ 1 ])
        (l [ 2 ]);
      "power[int](2, 2)";
      Printf.sprintf "sum_container[list int](%s)" (l [ 1; 2 ]);
    ]

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A session typechecks its prelude's System F translation once, and
   each theorem re-check resumes after it ([Session.verify] passes the
   session's checked prefix).  On every program the resumed check must
   agree with the full one, [Theorems.report_of_elaboration] with no
   prefix: the same System F type up to alpha, or the same diagnostic.
   The extended session ends in a type alias, whose wrapper rebuilds
   the translation under it, so there the resume must stop early. *)
let test_resumed_equals_full () =
  let files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           (path, read_file path))
  in
  let programs =
    List.concat_map files
      [ "../programs"; "../programs/errors"; "../programs/fuzz_regressions" ]
    @ List.init 300 (fun seed ->
          ( Printf.sprintf "Gen seed %d" seed,
            Pretty.exp_to_string (Gen.program_of_seed seed) ))
  in
  let prelude resolution =
    Session.of_config
      { (Session.Config.with_standard_prelude Session.Config.default) with
        resolution }
  in
  let sessions =
    [
      ("lexical prelude", prelude Resolution.Lexical);
      ("global prelude", prelude Resolution.Global);
      ( "prelude + alias",
        Session.extend
          (prelude Resolution.Lexical)
          "type myint = int in let idt = fun (x : myint) => x in" );
    ]
  in
  List.iter
    (fun (sname, s) ->
      let checked = ref 0 in
      List.iter
        (fun (file, src) ->
          let resumed =
            Fg_util.Diag.protect (fun () -> Session.verify ~file s src)
          and full =
            Fg_util.Diag.protect (fun () ->
                Theorems.report_of_elaboration (Session.elaborate ~file s src))
          in
          match (resumed, full) with
          | Ok r, Ok f ->
              incr checked;
              if not (Fg_systemf.Ast.alpha_equal r.f_ty f.f_ty) then
                Alcotest.failf "%s, %s: resumed type %s, full type %s" sname
                  file
                  (Fg_systemf.Pretty.ty_to_string r.f_ty)
                  (Fg_systemf.Pretty.ty_to_string f.f_ty)
          | Error r, Error f ->
              Alcotest.(check string)
                (Printf.sprintf "%s, %s: diagnostic" sname file)
                (Fg_util.Diag.to_string f) (Fg_util.Diag.to_string r)
          | Ok _, Error d | Error d, Ok _ ->
              Alcotest.failf "%s, %s: only one check failed: %s" sname file
                (Fg_util.Diag.to_string d))
        programs;
      if !checked < 300 then
        Alcotest.failf "%s: only %d of %d programs reached the re-check" sname
          !checked (List.length programs))
    sessions

(* The centerpiece property tests: on randomly generated well-typed
   programs, (1) checking succeeds, (2) the translation re-checks in
   System F at the translated type, (3) both semantics agree. *)

let prop_translation_preserves_typing =
  QCheck.Test.make ~name:"THEOREM: translation preserves typing (random)"
    ~count:500
    QCheck.(make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let e = Gen.program_of_seed seed in
      match Theorems.check_translation_result e with
      | Ok _ -> true
      | Error d ->
          QCheck.Test.fail_reportf "seed %d: %s@.%s" seed
            (Fg_util.Diag.to_string d) (Pretty.exp_to_string e))

let prop_semantic_agreement =
  QCheck.Test.make
    ~name:"direct interpreter agrees with translation (random)" ~count:300
    QCheck.(make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let e = Gen.program_of_seed (seed + 7_000_000) in
      match Theorems.check_agreement_result e with
      | Ok _ -> true
      | Error d ->
          QCheck.Test.fail_reportf "seed %d: %s@.%s" seed
            (Fg_util.Diag.to_string d) (Pretty.exp_to_string e))

let prop_generated_programs_reparse =
  QCheck.Test.make ~name:"generated programs round-trip the printer"
    ~count:300
    QCheck.(make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let e = Gen.program_of_seed (seed + 13_000_000) in
      let src = Pretty.exp_to_string e in
      match Fg_util.Diag.protect (fun () -> Parser.exp_of_string src) with
      | Ok e2 ->
          (* reparsing must preserve the meaning: same type and value *)
          let t1 = Check.typecheck e and t2 = Check.typecheck e2 in
          Ast.ty_equal t1 t2
      | Error d ->
          QCheck.Test.fail_reportf "seed %d reparse: %s@.%s" seed
            (Fg_util.Diag.to_string d) src)

let prop_global_mode_sound =
  (* programs with a single ground type never declare overlapping
     models, so they must also typecheck in Global mode with the same
     type *)
  QCheck.Test.make ~name:"global mode agrees when no overlap" ~count:200
    QCheck.(make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let e = Gen.program_of_seed (seed + 23_000_000) in
      match
        ( Check.check_result ~resolution:Resolution.Lexical e,
          Check.check_result ~resolution:Resolution.Global e )
      with
      | Ok (t1, _), Ok (t2, _) -> Ast.ty_equal t1 t2
      | Ok _, Error _ ->
          (* only legitimate if the program truly overlaps — generated
             programs declare each (concept, ground) model once, so this
             would be a bug *)
          false
      | Error _, _ -> false)

let suite =
  [
    Alcotest.test_case "theorem on the paper corpus" `Quick
      test_theorem_on_corpus;
    Alcotest.test_case "semantic agreement on the corpus" `Quick
      test_agreement_on_corpus;
    Alcotest.test_case "theorem report fields" `Quick
      test_theorem_report_fields;
    Alcotest.test_case "theorem on prelude algorithms" `Quick
      test_theorem_on_prelude_algorithms;
    Alcotest.test_case "resumed = full" `Quick test_resumed_equals_full;
    QCheck_alcotest.to_alcotest prop_translation_preserves_typing;
    QCheck_alcotest.to_alcotest prop_semantic_agreement;
    QCheck_alcotest.to_alcotest prop_generated_programs_reparse;
    QCheck_alcotest.to_alcotest prop_global_mode_sound;
  ]
