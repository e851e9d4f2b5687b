(* The workspace language service.

   The contract under test: (1) an edit re-checks exactly the dirty
   declaration plus its transitive dependents — unit-cache miss counts
   are asserted, not estimated; (2) warm diagnostics are byte-identical
   to a cold open of the final text, for hand-written edit scripts, for
   qcheck-generated arbitrary splice sequences, and for the whole
   corpus against a fresh session; (3) the service errors (FG0807
   unknown document, FG0808 stale version) and the stats JSON shape are
   stable; (4) hover / definition / completion answer from the position
   index. *)

open Fg_util
open Fg_core
module W = Fg_workspace.Workspace

let dict = Backend.Dict

let open_doc ?(prelude = false) ws ~name ~version text =
  W.open_doc ws ~name ~version ~prelude ~global_models:false ~backend:dict
    text

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

(* ------------------------------------------------------------------ *)
(* Incremental re-checking: exact unit-cache miss counts               *)

let program_3decls =
  "let a = 1 in\nlet b = 2 in\nlet c = a + 3 in\na + b + c"

let test_edit_misses_only_dirty_decl () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"t.fg" ~version:1 program_3decls));
  let before = (W.cache_stats ws).Unit.s_misses in
  (* mutate the independent declaration [b]: same byte count, same
     line/column geometry, no dependents *)
  let off = String.index_from program_3decls 0 '2' in
  ignore
    (ok
       (W.change_doc ws ~name:"t.fg" ~version:2
          (W.Edits [ { W.e_start = off; e_len = 1; e_text = "7" } ])));
  let after = (W.cache_stats ws).Unit.s_misses in
  Alcotest.(check int) "only b re-checked" 1 (after - before)

let test_edit_misses_decl_and_dependents () =
  let ws = W.create () in
  ignore (ok (open_doc ws ~name:"t.fg" ~version:1 program_3decls));
  let before = (W.cache_stats ws).Unit.s_misses in
  (* mutate [a]: [c] uses [a], so exactly a and c re-check; b replays *)
  let off = String.index_from program_3decls 0 '1' in
  ignore
    (ok
       (W.change_doc ws ~name:"t.fg" ~version:2
          (W.Edits [ { W.e_start = off; e_len = 1; e_text = "5" } ])));
  let after = (W.cache_stats ws).Unit.s_misses in
  Alcotest.(check int) "a and its dependent c re-checked" 2
    (after - before)

let test_length_changing_edit_misses_only_dirty_decl () =
  (* "1" -> "100" shifts the byte offsets of every later declaration
     (the concept and model included) without moving a line; only [a]
     itself may re-check. *)
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
  Alcotest.(check int) "only a re-checked" 1 (after - before);
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

let index_of_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then Alcotest.failf "substring %S not found" needle
    else if String.sub haystack i nn = needle then i
    else go (i + 1)
  in
  go 0

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
    Alcotest.test_case "edit re-checks only the dirty decl" `Quick
      test_edit_misses_only_dirty_decl;
    Alcotest.test_case "edit re-checks decl + transitive dependents"
      `Quick test_edit_misses_decl_and_dependents;
    Alcotest.test_case "length-changing edit re-checks only that decl"
      `Quick test_length_changing_edit_misses_only_dirty_decl;
    Alcotest.test_case "edit then revert = cold open bytes" `Quick
      test_edit_then_revert_matches_cold;
    QCheck_alcotest.to_alcotest prop_random_edits_match_cold;
    Alcotest.test_case "corpus: workspace = driver bytes" `Slow
      test_corpus_matches_driver;
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
