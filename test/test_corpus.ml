(* The paper corpus, as executable expectations: every positive entry
   runs the full pipeline (check, translate, verify theorem, evaluate
   both ways) and must produce its documented value; every negative
   entry must fail in its documented phase. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let run_entry (e : Corpus.entry) () =
  match e.expected with
  | Corpus.Value expect -> (
      match Session.run_result ~file:e.name (session ()) e.source with
      | Ok out ->
          Alcotest.(check string)
            (e.name ^ " value")
            (Interp.flat_to_string expect)
            (Interp.flat_to_string out.value);
          Alcotest.(check bool) (e.name ^ " theorem") true out.theorem_holds
      | Error d -> Alcotest.failf "%s failed: %s" e.name (Fg_util.Diag.to_string d))
  | Corpus.Fails phase -> (
      match Session.run_result ~file:e.name (session ()) e.source with
      | Ok out ->
          Alcotest.failf "%s unexpectedly succeeded with %s" e.name
            (Interp.flat_to_string out.value)
      | Error d ->
          if d.phase <> phase then
            Alcotest.failf "%s failed in the wrong phase: %s" e.name
              (Fg_util.Diag.to_string d))

(* A few spot checks that corpus entries assert what the paper says. *)
let test_fig6_values () =
  let out = Session.run (session ()) Corpus.fig6_overlap.source in
  Alcotest.(check string) "paper's (3, 2)" "(3, 2)"
    (Interp.flat_to_string out.value)

let test_fig5_type () =
  let ty = Session.typecheck (session ()) Corpus.fig5_accumulate.source in
  Alcotest.(check string) "program type" "int" (Pretty.ty_to_string ty)

let test_accumulate_type_generic () =
  (* the type of accumulate itself, before instantiation *)
  let src =
    Corpus.monoid_prelude ^ Corpus.accumulate_def ^ "accumulate"
  in
  let ty = Check.typecheck ~escape_check:false (Parser.exp_of_string src) in
  Alcotest.(check string) "generic type"
    "forall t where Monoid<t>. fn(list t) -> t" (Pretty.ty_to_string ty)

let test_merge_type_generic () =
  let src =
    Corpus.merge_example.source
  in
  (* just check the whole program's type *)
  let ty = Session.typecheck (session ()) src in
  Alcotest.(check string) "program type" "list int" (Pretty.ty_to_string ty)

let test_corpus_is_self_consistent () =
  (* names unique; every entry findable *)
  let names = List.map (fun (e : Corpus.entry) -> e.name) Corpus.all in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n -> ignore (Corpus.find n))
    names

let suite =
  List.map
    (fun (e : Corpus.entry) ->
      Alcotest.test_case (e.name ^ " [" ^ e.paper ^ "]") `Quick (run_entry e))
    Corpus.all
  @ [
      Alcotest.test_case "figure 6 produces (3, 2)" `Quick test_fig6_values;
      Alcotest.test_case "figure 5 program type" `Quick test_fig5_type;
      Alcotest.test_case "accumulate generic type" `Quick
        test_accumulate_type_generic;
      Alcotest.test_case "merge program type" `Quick test_merge_type_generic;
      Alcotest.test_case "corpus self-consistent" `Quick
        test_corpus_is_self_consistent;
    ]
