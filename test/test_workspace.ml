(* The workspace language service.

   The contract under test: (1) an edit re-checks exactly the edited
   declaration and every declaration after it — unit-cache miss counts
   are asserted, not estimated; (2) warm diagnostics are byte-identical
   to a cold open of the final text, for hand-written edit scripts, for
   qcheck-generated arbitrary splice sequences, and for the whole
   corpus against a fresh session, and warm hover, definition and
   completion answers equal a fresh open's at every offset of the
   corpus; (3) the service errors (FG0807 unknown document, FG0808
   stale version) and the stats JSON shape are stable; (4) hover /
   definition / completion answer from the position index; (5) a long
   run of distinct edits leaves the workspace's memory where the unit
   cache's bound puts it. *)

open Fg_util
open Fg_core
module W = Fg_workspace.Workspace

let open_doc ?(prelude = false) ws ~name ~version text =
  W.open_doc ws ~name ~version ~prelude ~global_models:false text

let ok = function
  | Ok payload -> payload
  | Error e -> Alcotest.failf "workspace error %s: %s" e.W.ws_code e.W.ws_msg

let err = function
  | Ok _ -> Alcotest.fail "expected a workspace error"
  | Error (e : W.ws_error) -> e.W.ws_code

(* The same clamped-splice semantics as Workspace.apply_edits, for
   computing expected final texts in tests. *)
let splice text (start, len, ins) =
  let n = String.length text in
  let s = max 0 (min start n) in
  let e = max s (min (s + len) n) in
  String.sub text 0 s ^ ins ^ String.sub text e (n - e)

let index_of_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.failf "substring %S not found" needle
    else if String.sub haystack i nn = needle then i
    else go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Incremental re-checking: exact unit-cache miss counts               *)

let program_3decls =
  "let a = 1 in\nlet b = 2 in\nlet c = a + 3 in\na + b + c"

(* Re-checking after one same-length splice [(what, text, needle,
   replacement, misses)]: [needle]'s first byte becomes [replacement]. *)
let test_edit_misses_only_from_edit () =
  let commented =
    "let a = 1 in\n/* then b */\nlet b = 2 in\nlet c = a + 3 in\na + b + c"
  in
  List.iter
    (fun (what, text, needle, replacement, misses) ->
      let ws = W.create () in
      ignore (ok (open_doc ws ~name:"t.fg" ~version:1 text));
      let before = (W.cache_stats ws).Unit.s_misses in
      let off = index_of_sub text needle in
      let edited =
        ok
          (W.change_doc ws ~name:"t.fg" ~version:2
             (W.Edits [ { W.e_start = off; e_len = 1; e_text = replacement } ]))
      in
      let after = (W.cache_stats ws).Unit.s_misses in
      Alcotest.(check int) what misses (after - before);
      Alcotest.(check string) (what ^ ": warm = cold")
        (ok
           (open_doc (W.create ()) ~name:"t.fg" ~version:1
              (splice text (off, 1, replacement))))
        edited)
    [
      (* [b] and the [c] after it, though [c] does not use [b] *)
      ("b and c re-checked", program_3decls, "2", "7", 2);
      ("a residual edit re-checks no unit", program_3decls, "+ c", "-", 0);
      ("a comment edit re-checks every later decl", commented, "then", "w", 2);
    ]

let test_edit_misses_first_decl_and_later () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"t.fg" ~version:1 program_3decls));
  let before = (W.cache_stats ws).Unit.s_misses in
  (* mutate [a]: a, b and c all follow the edit *)
  let off = String.index_from program_3decls 0 '1' in
  ignore
    (ok
       (W.change_doc ws ~name:"t.fg" ~version:2
          (W.Edits [ { W.e_start = off; e_len = 1; e_text = "5" } ])));
  let after = (W.cache_stats ws).Unit.s_misses in
  Alcotest.(check int) "a, b and c re-checked" 3 (after - before)

let test_length_changing_edit_misses_from_edit () =
  (* "1" -> "100" re-checks [a] and the concept, model and [b] after
     it. *)
  let text =
    "let a = 1 in\n\
     concept C<t> { m : t; } in\n\
     model C<int> { m = 2; } in\n\
     let b = C<int>.m in\n\
     a + b"
  in
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"t.fg" ~version:1 text));
  let before = (W.cache_stats ws).Unit.s_misses in
  let off = String.index text '1' in
  let edited =
    ok
      (W.change_doc ws ~name:"t.fg" ~version:2
         (W.Edits [ { W.e_start = off; e_len = 1; e_text = "100" } ]))
  in
  let after = (W.cache_stats ws).Unit.s_misses in
  Alcotest.(check int) "a and the 3 decls after it re-checked" 4
    (after - before);
  let cold =
    ok
      (open_doc (W.create ()) ~name:"t.fg" ~version:1
         (splice text (off, 1, "100")))
  in
  Alcotest.(check string) "warm = cold" cold edited

(* ------------------------------------------------------------------ *)
(* Warm = cold byte identity                                           *)

let test_edit_then_revert_matches_cold () =
  let ws = W.create () in
  let cold0 = ok (open_doc ws ~name:"t.fg" ~version:1 program_3decls) in
  let off = String.index_from program_3decls 0 '3' in
  let edited =
    ok
      (W.change_doc ws ~name:"t.fg" ~version:2
         (W.Edits [ { W.e_start = off; e_len = 1; e_text = "9" } ]))
  in
  let cold_ws = W.create () in
  let cold_edited =
    ok
      (open_doc cold_ws ~name:"t.fg" ~version:1
         (splice program_3decls (off, 1, "9")))
  in
  Alcotest.(check string) "edited warm = cold" cold_edited edited;
  let reverted =
    ok
      (W.change_doc ws ~name:"t.fg" ~version:3
         (W.Edits [ { W.e_start = off; e_len = 1; e_text = "3" } ]))
  in
  Alcotest.(check string) "revert = original open" cold0 reverted;
  Alcotest.(check string)
    "diagnostics returns the same payload" reverted
    (ok (W.diagnostics ws ~name:"t.fg"))

(* qcheck: arbitrary splice sequences — including ones that break the
   program — leave warm diagnostics byte-identical to a cold open of
   the final text. *)
let splice_gen =
  QCheck.Gen.(
    triple (int_bound 80) (int_bound 8)
      (string_size ~gen:(oneofl [ '1'; 'x'; '+'; ' '; '('; 'l' ]) (int_bound 4)))

let prop_random_edits_match_cold =
  QCheck.Test.make ~name:"random doc_change sequences = cold open"
    ~count:60
    (QCheck.make
       ~print:(fun es ->
         String.concat ";"
           (List.map (fun (s, l, t) -> Printf.sprintf "(%d,%d,%S)" s l t) es))
       QCheck.Gen.(list_size (int_range 1 6) splice_gen))
    (fun edits ->
      let ws = W.create () in
      ignore (ok (open_doc ws ~name:"q.fg" ~version:1 program_3decls));
      let version = ref 1 in
      let warm =
        List.fold_left
          (fun _ (s, l, t) ->
            incr version;
            ok
              (W.change_doc ws ~name:"q.fg" ~version:!version
                 (W.Edits [ { W.e_start = s; e_len = l; e_text = t } ])))
          "" edits
      in
      let final_text = List.fold_left splice program_3decls edits in
      let cold = W.create () in
      let cold_payload =
        ok (open_doc cold ~name:"q.fg" ~version:1 final_text)
      in
      warm = cold_payload)

(* Whole corpus: a workspace open must render byte-identically to the
   plain recovering driver (the same bytes `fgc run --format=json`
   prints). *)
let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_corpus_matches_driver () =
  let ws = W.create () in
  let files =
    Sys.readdir "../programs" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".fg")
    |> List.sort String.compare
  in
  List.iteri
    (fun i f ->
      let path = Filename.concat "../programs" f in
      let text = read_file path in
      let from_ws =
        ok (open_doc ws ~prelude:true ~name:path ~version:(i + 1) text)
      in
      let s =
        Session.of_config
          Session.Config.(default |> with_standard_prelude)
      in
      let report = Session.run_full ~file:path s text in
      let oneshot =
        Json.to_string (Jsonview.json_of_run_report ~file:path report)
      in
      Alcotest.(check string) (path ^ ": ws = driver") oneshot from_ws)
    files

(* Every answer the index gives after an edit and its revert — hover,
   definition and completion at every offset — equals a fresh open's,
   over every corpus document with and without the prelude.  The edit
   sits mid-document, so its check replays the units before it, and the
   revert replays every unit the first open checked: a replayed unit's
   entries must be exactly what its check recorded. *)
let test_index_warm_equals_cold () =
  let files =
    List.concat_map
      (fun dir ->
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".fg")
        |> List.sort String.compare
        |> List.map (Filename.concat dir))
      [ "../programs"; "../programs/errors"; "../programs/fuzz_regressions" ]
  in
  let answers ws ~name ~offset =
    String.concat "\n"
      [
        ok (W.hover ws ~name ~offset);
        ok (W.definition ws ~name ~offset);
        ok (W.completion ws ~name ~offset);
      ]
  in
  let warm = W.create () in
  List.iter
    (fun prelude ->
      List.iter
        (fun name ->
          let text = read_file name in
          let mid = String.length text / 2 in
          ignore (ok (open_doc warm ~prelude ~name ~version:1 text));
          List.iteri
            (fun i edit ->
              ignore
                (ok (W.change_doc warm ~name ~version:(i + 2) (W.Edits [ edit ]))))
            [
              { W.e_start = mid; e_len = 0; e_text = " " };
              { W.e_start = mid; e_len = 1; e_text = "" };
            ];
          let cold = W.create () in
          ignore (ok (open_doc cold ~prelude ~name ~version:1 text));
          for offset = 0 to String.length text do
            let want = answers cold ~name ~offset in
            let got = answers warm ~name ~offset in
            if not (String.equal want got) then
              Alcotest.(check string)
                (Printf.sprintf "%s%s @%d" name
                   (if prelude then " -p" else "")
                   offset)
                want got
          done)
        files)
    [ false; true ]

(* Distinct edits do not grow the workspace.  Each edit below changes
   the first declaration of one prelude document of 31 declarations,
   so it re-checks all of them: the units it leaves, and the index
   entries they carry, are bounded by the unit cache's capacity. *)
let test_distinct_edits_bounded () =
  let ws = W.create () in
  let rest = Genprog.shared_prefix ~decls:28 () in
  let text i = Printf.sprintf "let seed = %d in\n%s" i rest in
  ignore (ok (open_doc ws ~prelude:true ~name:"soak.fg" ~version:0 (text 0)));
  let edit first last =
    for i = first to last do
      ignore
        (ok (W.change_doc ws ~name:"soak.fg" ~version:i (W.Full_text (text i))))
    done
  in
  let words () =
    Gc.full_major ();
    Obj.reachable_words (Obj.repr ws)
  in
  edit 1 1_000;
  let at_1k = words () in
  edit 1_001 3_000;
  let at_3k = words () in
  if 10 * abs (at_3k - at_1k) > at_1k then
    Alcotest.failf "reachable words: %d after 1,000 edits, %d after 3,000"
      at_1k at_3k

(* ------------------------------------------------------------------ *)
(* Service errors                                                      *)

let test_unknown_and_stale () =
  let ws = W.create () in
  Alcotest.(check string)
    "change unknown" "FG0807"
    (err
       (W.change_doc ws ~name:"nope.fg" ~version:1 (W.Full_text "1")));
  Alcotest.(check string)
    "hover unknown" "FG0807"
    (err (W.hover ws ~name:"nope.fg" ~offset:0));
  ignore (ok (open_doc ws ~name:"s.fg" ~version:5 "1 + 2"));
  Alcotest.(check string)
    "same version stale" "FG0808"
    (err (W.change_doc ws ~name:"s.fg" ~version:5 (W.Full_text "2")));
  Alcotest.(check string)
    "older version stale" "FG0808"
    (err (W.change_doc ws ~name:"s.fg" ~version:4 (W.Full_text "2")));
  ignore (ok (W.change_doc ws ~name:"s.fg" ~version:6 (W.Full_text "2")));
  ignore (ok (W.close_doc ws ~name:"s.fg"));
  Alcotest.(check string)
    "closed is unknown" "FG0807"
    (err (W.diagnostics ws ~name:"s.fg"))

(* ------------------------------------------------------------------ *)
(* Hover / definition / completion                                     *)

let hover_program =
  "concept Number<u> { mult : fn(u, u) -> u; } in\n\
   let square = tfun t where Number<t> => fun (x : t) => \
   Number<t>.mult(x, x) in\n\
   model Number<int> { mult = imult; } in\n\
   square[int](4)"

let field payload name =
  match Json.of_string payload with
  | Ok j -> Json.mem name j
  | Error e -> Alcotest.failf "bad payload JSON: %s" e

let test_hover_types_and_models () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"h.fg" ~version:1 hover_program));
  (* on Number<t>.mult in square's body *)
  let off = 47 + String.length "let square = tfun t where Number<t> => fun (x : t) => " in
  let payload = ok (W.hover ws ~name:"h.fg" ~offset:off) in
  (match field payload "type" with
  | Some (Json.Str ty) ->
      Alcotest.(check string) "member type" "fn(t, t) -> t" ty
  | _ -> Alcotest.failf "no type in hover payload: %s" payload);
  (match field payload "model" with
  | Some m -> (
      match Json.str_field "concept" m with
      | Some c -> Alcotest.(check string) "resolved concept" "Number" c
      | None -> Alcotest.fail "model without concept")
  | None -> Alcotest.failf "no model in hover payload: %s" payload);
  (* the literal 4 in the final application *)
  let lit_off = String.length hover_program - 2 in
  let payload = ok (W.hover ws ~name:"h.fg" ~offset:lit_off) in
  match field payload "type" with
  | Some (Json.Str ty) -> Alcotest.(check string) "literal type" "int" ty
  | _ -> Alcotest.failf "no type at literal: %s" payload

let test_hover_survives_edit_of_other_decl () =
  (* After editing a different declaration, hover inside the cache-hit
     declaration still answers (the index fragment is replayed). *)
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"h.fg" ~version:1 hover_program));
  let four = String.length hover_program - 2 in
  ignore
    (ok
       (W.change_doc ws ~name:"h.fg" ~version:2
          (W.Edits [ { W.e_start = four; e_len = 1; e_text = "5" } ])));
  let off = 47 + String.length "let square = tfun t where Number<t> => fun (x : t) => " in
  let payload = ok (W.hover ws ~name:"h.fg" ~offset:off) in
  match field payload "type" with
  | Some (Json.Str ty) ->
      Alcotest.(check string) "member type after edit" "fn(t, t) -> t" ty
  | _ -> Alcotest.failf "hover lost after unrelated edit: %s" payload

let test_definition () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"d.fg" ~version:1 hover_program));
  (* Number<t>.mult resolves to the concept declaration on line 1 *)
  let off = 47 + String.length "let square = tfun t where Number<t> => fun (x : t) => " in
  let payload = ok (W.definition ws ~name:"d.fg" ~offset:off) in
  (match field payload "name" with
  | Some (Json.Str n) -> Alcotest.(check string) "member def" "Number.mult" n
  | _ -> Alcotest.failf "no definition: %s" payload);
  (* the use of square on the last line resolves to its let *)
  let use = index_of_sub hover_program "square[int]" in
  let payload = ok (W.definition ws ~name:"d.fg" ~offset:use) in
  match field payload "name" with
  | Some (Json.Str n) -> Alcotest.(check string) "let def" "square" n
  | _ -> Alcotest.failf "no definition for square use: %s" payload

let test_completion () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"c.fg" ~version:1 hover_program));
  (* at the end of the document: square, Number, mult all in scope *)
  let payload =
    ok
      (W.completion ws ~name:"c.fg"
         ~offset:(String.length hover_program))
  in
  let labels =
    match field payload "items" with
    | Some (Json.List items) ->
        List.filter_map
          (fun i ->
            match Json.str_field "label" i with Some l -> Some l | None -> None)
          items
    | _ -> []
  in
  Alcotest.(check bool) "square" true (List.mem "square" labels);
  Alcotest.(check bool) "Number" true (List.mem "Number" labels);
  Alcotest.(check bool) "mult member" true (List.mem "mult" labels)

(* ------------------------------------------------------------------ *)
(* Stats shape                                                         *)

let test_stats_shape () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"s.fg" ~version:1 "1 + 2"));
  ignore (ok (W.hover ws ~name:"s.fg" ~offset:0));
  match W.stats_json ws with
  | Json.Obj fields ->
      Alcotest.(check (list string))
        "stats keys"
        [ "change"; "close"; "completion"; "definition"; "diagnostics";
          "docs"; "hover"; "open" ]
        (List.map fst fields);
      (match List.assoc "docs" fields with
      | Json.Int n -> Alcotest.(check int) "docs" 1 n
      | _ -> Alcotest.fail "docs is not an int");
      List.iter
        (fun k ->
          match List.assoc k fields with
          | Json.Obj h ->
              Alcotest.(check (list string))
                (k ^ " histogram keys")
                [ "count"; "max_ms"; "mean_ms"; "p50_ms"; "p95_ms";
                  "p99_ms" ]
                (List.map fst h)
          | _ -> Alcotest.failf "%s is not a histogram object" k)
        [ "open"; "change"; "close"; "diagnostics"; "hover"; "definition";
          "completion" ]
  | _ -> Alcotest.fail "stats_json is not an object"

let suite =
  [
    Alcotest.test_case "edit re-checks only the decls from the edit on"
      `Quick test_edit_misses_only_from_edit;
    Alcotest.test_case "edit re-checks decl + trailing decls" `Quick
      test_edit_misses_first_decl_and_later;
    Alcotest.test_case "length-changing edit re-checks from the edit on"
      `Quick test_length_changing_edit_misses_from_edit;
    Alcotest.test_case "edit then revert = cold open bytes" `Quick
      test_edit_then_revert_matches_cold;
    QCheck_alcotest.to_alcotest prop_random_edits_match_cold;
    Alcotest.test_case "corpus: workspace = driver bytes" `Slow
      test_corpus_matches_driver;
    Alcotest.test_case "corpus: warm index answers = fresh open's" `Slow
      test_index_warm_equals_cold;
    Alcotest.test_case "distinct edits keep memory bounded" `Slow
      test_distinct_edits_bounded;
    Alcotest.test_case "FG0807 / FG0808 service errors" `Quick
      test_unknown_and_stale;
    Alcotest.test_case "hover: types and resolved models" `Quick
      test_hover_types_and_models;
    Alcotest.test_case "hover survives edits of other decls" `Quick
      test_hover_survives_edit_of_other_decl;
    Alcotest.test_case "definition: members and lets" `Quick
      test_definition;
    Alcotest.test_case "completion: decls, concepts, members" `Quick
      test_completion;
    Alcotest.test_case "stats JSON shape" `Quick test_stats_shape;
  ]
