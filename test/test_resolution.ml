(* Tests for the resolution-mode ablation (DESIGN.md S6 / experiment
   E4+E9): lexical (FG) vs global (Haskell-style) model resolution. *)

open Fg_core

let lexical = Resolution.Lexical
let global = Resolution.Global

let session resolution =
  Session.of_config { Session.Config.default with resolution }

let test_fig6_lexical_ok_global_rejected () =
  (* the paper's Figure 6 program *)
  let src = Corpus.fig6_overlap.source in
  (match Session.run_result (session lexical) src with
  | Ok out ->
      Alcotest.(check string) "lexical value" "(3, 2)"
        (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "lexical: %s" (Fg_util.Diag.to_string d));
  match Session.run_result (session global) src with
  | Ok _ -> Alcotest.fail "global mode must reject Figure 6"
  | Error d ->
      Alcotest.(check bool) "resolve phase" true
        (d.phase = Fg_util.Diag.Resolve);
      Alcotest.(check bool) "overlap message" true
        (Astring_contains.contains ~needle:"overlapping model" d.message)

let test_shadowing_rejected_globally () =
  (* even nested shadowing counts as overlap under global resolution *)
  let src = Corpus.model_shadowing.source in
  (match Session.run_result (session lexical) src with
  | Ok out ->
      Alcotest.(check string) "lexical shadowing" "6"
        (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "lexical: %s" (Fg_util.Diag.to_string d));
  match Session.run_result (session global) src with
  | Ok _ -> Alcotest.fail "global mode must reject shadowing"
  | Error _ -> ()

let test_no_overlap_agrees () =
  (* without overlap, both modes accept and agree *)
  List.iter
    (fun (e : Corpus.entry) ->
      match
        ( Session.run_result (session lexical) e.source,
          Session.run_result (session global) e.source )
      with
      | Ok a, Ok b ->
          Alcotest.(check string) (e.name ^ " values agree")
            (Interp.flat_to_string a.value)
            (Interp.flat_to_string b.value)
      | Error d, _ ->
          Alcotest.failf "%s lexical: %s" e.name (Fg_util.Diag.to_string d)
      | _, Error d ->
          Alcotest.failf "%s global: %s" e.name (Fg_util.Diag.to_string d))
    [
      Corpus.fig1_square;
      Corpus.fig5_accumulate;
      Corpus.iterator_accumulate;
      Corpus.merge_example;
      Corpus.diamond_refinement;
    ]

let test_distinct_types_not_overlap () =
  (* models at different types never overlap, even globally *)
  let src =
    {|concept Show<t> { render : fn(t) -> int; } in
model Show<int> { render = fun (x : int) => x; } in
model Show<bool> { render = fun (b : bool) => if b then 1 else 0; } in
(Show<int>.render(3), Show<bool>.render(true))|}
  in
  match Session.run_result (session global) src with
  | Ok out ->
      Alcotest.(check string) "accepted" "(3, 1)"
        (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "global: %s" (Fg_util.Diag.to_string d)

let test_distinct_concepts_not_overlap () =
  let src =
    {|concept A<t> { a : t; } in
concept B<t> { b : t; } in
model A<int> { a = 1; } in
model B<int> { b = 2; } in
A<int>.a + B<int>.b|}
  in
  match Session.run_result (session global) src with
  | Ok out ->
      Alcotest.(check string) "accepted" "3" (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "global: %s" (Fg_util.Diag.to_string d)

let test_overlap_detected_across_scopes () =
  (* the two models are in sibling scopes that never coexist — global
     mode still rejects (Haskell instances leak across modules), which
     is exactly the paper's Section 3.2 point *)
  let src =
    {|concept A<t> { a : t; } in
let x = model A<int> { a = 1; } in A<int>.a in
let y = model A<int> { a = 2; } in A<int>.a in
x + y|}
  in
  (match Session.run_result (session lexical) src with
  | Ok out ->
      Alcotest.(check string) "lexical" "3" (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "lexical: %s" (Fg_util.Diag.to_string d));
  match Session.run_result (session global) src with
  | Ok _ -> Alcotest.fail "global must reject sibling overlap"
  | Error _ -> ()

let test_mode_names () =
  Alcotest.(check string) "lexical" "lexical" (Resolution.mode_name lexical);
  Alcotest.(check string) "global" "global" (Resolution.mode_name global)

let suite =
  [
    Alcotest.test_case "Figure 6: lexical accepts, global rejects" `Quick
      test_fig6_lexical_ok_global_rejected;
    Alcotest.test_case "shadowing rejected globally" `Quick
      test_shadowing_rejected_globally;
    Alcotest.test_case "no overlap: modes agree" `Quick test_no_overlap_agrees;
    Alcotest.test_case "distinct types ok globally" `Quick
      test_distinct_types_not_overlap;
    Alcotest.test_case "distinct concepts ok globally" `Quick
      test_distinct_concepts_not_overlap;
    Alcotest.test_case "sibling scopes overlap globally" `Quick
      test_overlap_detected_across_scopes;
    Alcotest.test_case "mode names" `Quick test_mode_names;
  ]
