(* The session driver: a cached prelude must be observationally
   invisible — programs served by a prelude session are identical to
   the prelude-wrapped programs run on a fresh session — while the
   caches (prelude, compilation units, model resolution) actually
   amortize, batches are deterministic across domain counts, and
   extension leaves the original session intact. *)

open Fg_core

let l = Prelude.int_list

(* Translations from a prelude session and from a fresh session running
   the wrapped program differ only in source locations (a session
   program starts at line 1; a wrapped one sits below the prelude
   text), so compare their printed forms. *)
let f_exp_str (f : Fg_systemf.Ast.exp) = Fg_systemf.Pretty.exp_to_string f

let check_outcome_equal what (a : Session.outcome) (b : Session.outcome) =
  Alcotest.(check string)
    (what ^ ": type") (Pretty.ty_to_string a.fg_ty)
    (Pretty.ty_to_string b.fg_ty);
  Alcotest.(check string)
    (what ^ ": translation") (f_exp_str a.f_exp) (f_exp_str b.f_exp);
  Alcotest.(check bool)
    (what ^ ": value") true
    (Interp.flat_equal a.value b.value);
  Alcotest.(check int) (what ^ ": direct steps") a.direct_steps b.direct_steps;
  Alcotest.(check int)
    (what ^ ": translated steps") a.translated_steps b.translated_steps

(* ------------------------------------------------------------------ *)
(* Session-reuse equivalence                                           *)

let test_prelude_matches_wrapped () =
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  List.iter
    (fun body ->
      let from_session = Session.run ~file:"t" s body in
      let fresh =
        Session.run ~file:"t"
          (Session.of_config Session.Config.default)
          (Prelude.wrap body)
      in
      check_outcome_equal body from_session fresh)
    [
      Printf.sprintf "accumulate[int](%s)" (l [ 1; 2; 3 ]);
      Printf.sprintf "count[list int](%s, 2)" (l [ 2; 1; 2 ]);
      "power[int](3, 3)";
      Printf.sprintf "sum_container[list int](%s)" (l [ 10; 20 ]);
    ]

let test_repeat_runs_identical () =
  (* The second run hits the warm caches; its output must not change,
     and the resolution cache must actually be exercised. *)
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  let body = Printf.sprintf "accumulate[int](%s)" (l [ 4; 5; 6 ]) in
  let o1 = Session.run ~file:"t" s body in
  let before = Fg_util.Telemetry.snapshot () in
  let o2 = Session.run ~file:"t" s body in
  let d =
    Fg_util.Telemetry.diff (Fg_util.Telemetry.snapshot ()) before
  in
  check_outcome_equal "second run" o1 o2;
  Alcotest.(check bool)
    "second run reused the prelude" true
    (d.prelude_reuses = 1 && d.prelude_builds = 0);
  Alcotest.(check bool)
    "second run hit the resolution cache" true (d.resolve_hits > 0)

let test_session_error_then_recover () =
  (* A failing program must not poison the session for the next one. *)
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  (match Session.run_result ~file:"bad" s "unbound_variable_q" with
  | Error d -> Alcotest.(check bool) "typecheck error" true
                 (d.phase = Fg_util.Diag.Typecheck)
  | Ok _ -> Alcotest.fail "expected an error");
  let o = Session.run ~file:"good" s "power[int](2, 5)" in
  Alcotest.(check bool) "recovers" true (o.value = Interp.FlInt 10)

(* ------------------------------------------------------------------ *)
(* Cache invalidation: overlapping model names across programs         *)

let test_overlapping_models_across_programs () =
  (* Both programs declare Monoid<int> models — with different
     operations — on top of the same session-cached concepts.  The
     resolution cache is keyed by scope generation, so program 2 must
     see ITS model, not program 1's cached resolution. *)
  let s =
    Session.of_config
      {
        Session.Config.default with
        prelude = Some (Corpus.monoid_prelude ^ Corpus.accumulate_def);
      }
  in
  let sum_prog =
    Printf.sprintf
      "model Semigroup<int> { binary_op = iadd; } in\n\
       model Monoid<int> { identity_elt = 0; } in\n\
       accumulate[int](%s)" (l [ 2; 3; 4 ])
  in
  let product_prog =
    Printf.sprintf
      "model Semigroup<int> { binary_op = imult; } in\n\
       model Monoid<int> { identity_elt = 1; } in\n\
       accumulate[int](%s)" (l [ 2; 3; 4 ])
  in
  let o_sum = Session.run ~file:"sum" s sum_prog in
  let o_prod = Session.run ~file:"product" s product_prog in
  Alcotest.(check bool) "sum = 9" true (o_sum.value = Interp.FlInt 9);
  Alcotest.(check bool) "product = 24" true (o_prod.value = Interp.FlInt 24);
  (* and again in the other order, from the warm cache *)
  let o_prod2 = Session.run ~file:"product" s product_prog in
  let o_sum2 = Session.run ~file:"sum" s sum_prog in
  check_outcome_equal "sum after product" o_sum o_sum2;
  check_outcome_equal "product after sum" o_prod o_prod2

let test_local_model_does_not_leak () =
  (* Program 1 declares a model for a prelude concept; program 2 uses
     the concept WITHOUT declaring the model and must be rejected. *)
  let s =
    Session.of_config
      { Session.Config.default with prelude = Some Corpus.monoid_prelude }
  in
  let with_model =
    "model Semigroup<int> { binary_op = iadd; } in\n\
     model Monoid<int> { identity_elt = 0; } in\n\
     Monoid<int>.identity_elt"
  in
  let without_model = "Monoid<int>.identity_elt" in
  let o = Session.run ~file:"with" s with_model in
  Alcotest.(check bool) "model program runs" true (o.value = Interp.FlInt 0);
  match Session.run_result ~file:"without" s without_model with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "program 1's model leaked into program 2"

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)

let test_extend () =
  let base = Session.of_config Session.Config.(default |> with_standard_prelude) in
  let extended =
    Session.extend base "let triple = fun (x : int) => x + x + x in"
  in
  let o = Session.run ~file:"t" extended "triple(14)" in
  Alcotest.(check bool) "extended scope" true (o.value = Interp.FlInt 42);
  (* the original session must not see the extension *)
  (match Session.run_result ~file:"t" base "triple(14)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "extend mutated the base session");
  (* and the prelude is still live below the extension *)
  let o2 =
    Session.run ~file:"t" extended
      (Printf.sprintf "triple(accumulate[int](%s))" (l [ 1; 2 ]))
  in
  Alcotest.(check bool) "prelude + extension" true (o2.value = Interp.FlInt 9)

let test_extend_rejects_bad_decls () =
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  (match Session.extend_result s "let broken = undefined_name in" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected extension to fail");
  (* the failed extension must leave the session usable *)
  let o = Session.run ~file:"t" s "power[int](2, 3)" in
  Alcotest.(check bool) "session survives" true (o.value = Interp.FlInt 6)

(* ------------------------------------------------------------------ *)
(* Batch determinism                                                   *)

let batch_jobs =
  List.init 12 (fun i ->
      ( Printf.sprintf "job%02d" i,
        if i mod 5 = 4 then "this_is_unbound"
        else if i mod 3 = 2 then
          Printf.sprintf "count[list int](%s, %d)" (l [ i; i; 1 ]) i
        else Printf.sprintf "accumulate[int](%s)" (l [ i; i + 1 ]) ))

let run_jobs domains =
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  Session.run_batch ~domains s batch_jobs

let check_batches_equal a b =
  List.iter2
    (fun (n1, r1) (n2, r2) ->
      Alcotest.(check string) "job order" n1 n2;
      match (r1, r2) with
      | Ok o1, Ok o2 -> check_outcome_equal n1 o1 o2
      | Error d1, Error d2 ->
          Alcotest.(check string) (n1 ^ ": same diagnostic")
            (Fg_util.Diag.to_string d1) (Fg_util.Diag.to_string d2)
      | _ -> Alcotest.failf "%s: verdict differs between batches" n1)
    a b

(* Every program under programs/, programs/errors/ and
   programs/fuzz_regressions/, as batch jobs named by their paths. *)
let corpus_jobs () =
  List.concat_map
    (fun dir ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".fg")
      |> List.sort String.compare
      |> List.map (fun f ->
             let path = Filename.concat dir f in
             (path, In_channel.with_open_bin path In_channel.input_all)))
    [ "../programs"; "../programs/errors"; "../programs/fuzz_regressions" ]

(* A batch must agree with per-program runs under both resolution
   modes, with and without the prelude. *)
let batch_configs =
  List.concat_map
    (fun resolution ->
      let cfg = { Session.Config.default with resolution } in
      [ cfg; Session.Config.with_standard_prelude cfg ])
    [ Resolution.Lexical; Resolution.Global ]

(* What a job's result shows: its type, value, step counts and
   translation bytes, or its diagnostic's text. *)
let shown = function
  | Ok (o : Session.outcome) ->
      String.concat "\n"
        [
          Pretty.ty_to_string o.fg_ty;
          Interp.flat_to_string o.value;
          string_of_int o.direct_steps;
          string_of_int o.translated_steps;
          f_exp_str o.f_exp;
        ]
  | Error d -> "error: " ^ Fg_util.Diag.to_string d

(* The jobs whose batched result differs from a run of the same job on
   one session that keeps its unit cache, as batches never do. *)
let batch_mismatches ~domains cfg jobs =
  let batched = Session.run_batch ~domains (Session.of_config cfg) jobs in
  let single = Session.of_config cfg in
  List.concat
    (List.map2
       (fun (name, src) (n, r) ->
         if
           String.equal name n
           && String.equal (shown r)
                (shown (Session.run_result ~file:name single src))
         then []
         else [ name ])
       jobs batched)

let test_batch_deterministic () =
  let b1 = run_jobs 1 in
  let b2 = run_jobs 2 in
  let bn = run_jobs (Session.default_domains ()) in
  Alcotest.(check int) "all jobs" (List.length batch_jobs) (List.length b1);
  check_batches_equal b1 b2;
  check_batches_equal b1 bn;
  (* and the batch agrees with serving the jobs one by one *)
  let corpus = corpus_jobs () in
  Alcotest.(check bool) "corpus found" true (List.length corpus > 30);
  List.iter
    (fun cfg ->
      Alcotest.(check (list string))
        "jobs whose batch result differs from a single run" []
        (batch_mismatches ~domains:2 cfg (batch_jobs @ corpus)))
    batch_configs

(* A batch runs each job once, under the job's own name, and a unit's
   key includes the file, so nothing could read a batch's units back: a
   batch keys nothing, on any domain, even when its session's cache has
   a disk store behind it. *)
let test_batch_keys_nothing () =
  let root = Filename.temp_dir "fg_batch_store" "" in
  Fun.protect
    ~finally:(fun () -> try Unix.rmdir root with Unix.Unix_error _ -> ())
    (fun () ->
      let stored =
        let cache = Unit.create_cache () in
        Unit.set_stores cache [ Unit.disk_store (Diskcache.open_store root) ];
        Session.of_config ~cache Session.Config.default
      in
      let corpus = corpus_jobs () in
      List.iter
        (fun s ->
          List.iter
            (fun domains ->
              ignore (Session.run_batch ~domains s corpus);
              let st = Session.cache_stats s in
              Alcotest.(check (list int)) "hits, misses, size" [ 0; 0; 0 ]
                [ st.Unit.s_hits; st.Unit.s_misses; st.Unit.s_size ];
              let t = Session.stats s in
              Alcotest.(check (list int)) "unit traffic on every domain"
                [ 0; 0 ]
                [ t.Fg_util.Telemetry.unit_hits;
                  t.Fg_util.Telemetry.unit_misses ])
            [ 1; 2 ])
        [ Session.of_config Session.Config.default; stored ];
      Alcotest.(check (array string)) "store entries" [||] (Sys.readdir root))

(* A batch keeps of each job only what its caller projects: after a
   batch over 200 generated programs that keeps each job's value (or
   diagnostic) and a full major collection, the live heap has grown by
   less than 100 words per job.  Keeping whole outcomes (each job's
   source, AST and translation) holds about 2,000 words per job. *)
let test_batch_keeps_projection () =
  let jobs =
    List.init 200 (fun i ->
        ( Printf.sprintf "gen_%03d" i,
          Pretty.exp_to_string (Gen.program_of_seed i) ))
  in
  let s = Session.of_config Session.Config.default in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let kept =
    Session.map_batch ~domains:1 s jobs (fun _ r ->
        Result.map (fun (o : Session.outcome) -> o.value) r)
  in
  let grown = live () - before in
  Alcotest.(check int) "every job" 200 (List.length (Sys.opaque_identity kept));
  if grown >= 100 * 200 then
    Alcotest.failf "live words grew by %d over 200 jobs" grown

let test_batch_more_domains_than_jobs () =
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  let jobs = [ ("only", "power[int](2, 4)") ] in
  match Session.run_batch ~domains:8 s jobs with
  | [ ("only", Ok o) ] ->
      Alcotest.(check bool) "value" true (o.value = Interp.FlInt 8)
  | _ -> Alcotest.fail "unexpected batch shape"

(* Batch domains must share no mutable checker state.  When the empty
   equality context was one top-level value, every session's congruence
   closure was the same unsynchronized structure, and concurrent domains
   interning into it crashed (Not_found, index out of bounds) or reported
   spurious FG0202/FG0301/FG0303.  Heavy generated families plus random
   programs, batched again and again over 2 and 4 domains, must
   reproduce the one-domain results exactly. *)
let test_batch_domains_share_nothing () =
  let jobs =
    [
      ("let_chain_80", Genprog.let_chain 80);
      ("many_models_160", Genprog.many_models 160);
      ("wide_where_32", Genprog.wide_where 32);
      ("refine_diamond_08", Genprog.refinement_diamond 8);
      ("same_type_chain_64", Genprog.same_type_chain 64);
      ("assoc_chain_24", Genprog.assoc_chain 24);
      ("param_depth_10", Genprog.param_depth 10);
      ("fanout_08", Genprog.instantiation_fanout ~reps:6 8);
    ]
    @ List.init 60 (fun i ->
          ( Printf.sprintf "gen_%02d" i,
            Pretty.exp_to_string (Gen.program_of_seed i) ))
  in
  let s = Session.of_config Session.Config.default in
  let want = Session.run_batch ~domains:1 s jobs in
  for _ = 1 to 3 do
    List.iter
      (fun domains ->
        check_batches_equal want (Session.run_batch ~domains s jobs))
      [ 2; 4 ]
  done

let prop_batch_matches_single_on_generated =
  QCheck.Test.make ~name:"batch over generated programs = single runs"
    ~count:30
    QCheck.(make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      (* a batch of ten printed generated programs (300 over the whole
         run), fanned out over 2 domains, must match per-program session
         runs in every configuration *)
      let jobs =
        List.init 10 (fun i ->
            ( Printf.sprintf "g%d" i,
              Pretty.exp_to_string (Gen.program_of_seed (seed + (i * 101))) ))
      in
      List.for_all
        (fun cfg -> batch_mismatches ~domains:2 cfg jobs = [])
        batch_configs)

(* ------------------------------------------------------------------ *)
(* Incremental re-checking: the unit cache must be invisible            *)

(* The full (type, elaborated term, translation, diagnostics, value)
   quintuple of a run, printed — the strongest observable a program
   has.  A warm session must reproduce a cold session's quintuple
   byte-for-byte. *)
let quintuple s file src =
  let report = Session.run_full ~file s src in
  let elaborated =
    match Fg_util.Diag.protect (fun () -> Session.elaborate ~file s src) with
    | Ok (ty, elab, f) ->
        Pretty.ty_to_string ty ^ "\n" ^ Pretty.exp_to_string elab ^ "\n"
        ^ f_exp_str f
    | Error d -> "error: " ^ Fg_util.Diag.to_string d
  in
  Fg_util.Json.to_string (Jsonview.json_of_run_report ~file report)
  ^ "\n" ^ elaborated

let test_incremental_mutation_equals_cold () =
  (* Check a shared-prefix program, then mutate declaration k and
     re-check incrementally: every unit before the edit replays from
     cache, and the result must equal a cold check of the mutated
     program. *)
  let decls = 6 in
  let base = Genprog.shared_prefix ~decls () in
  for k = 0 to decls - 1 do
    let mutated = Genprog.shared_prefix ~edit_at:k ~edit:3 ~decls () in
    let warm = Session.of_config Session.Config.default in
    ignore (quintuple warm "t" base);
    let before = Session.cache_stats warm in
    let got = quintuple warm "t" mutated in
    let after = Session.cache_stats warm in
    let cold = Session.of_config Session.Config.default in
    let want = quintuple cold "t" mutated in
    Alcotest.(check string)
      (Printf.sprintf "mutate decl %d: quintuple" k)
      want got;
    (* A unit is keyed by the source up to its end, so the first pass
       ([run_full]) replays the 2 framing decls and the k definitions
       before the edit and re-checks the edited one and every one after
       it; the second pass ([elaborate]) parses to the same spans, so
       it replays all decls + 2 units. *)
    Alcotest.(check int)
      (Printf.sprintf "mutate decl %d: misses" k)
      (decls - k)
      (after.Unit.s_misses - before.Unit.s_misses);
    Alcotest.(check int)
      (Printf.sprintf "mutate decl %d: hits" k)
      (k + 2 + (decls + 2))
      (after.Unit.s_hits - before.Unit.s_hits)
  done

let test_length_changing_edit_rechecks_from_edit () =
  (* Widening a leading literal re-checks the edited declaration and
     everything after it, once: the concept, the model and [b] follow
     it in the source. *)
  let src lit =
    Printf.sprintf
      "let a = %s in\n\
       concept C<t> { m : t; } in\n\
       model C<int> { m = 2; } in\n\
       let b = C<int>.m in\n\
       a + b"
      lit
  in
  let warm = Session.of_config Session.Config.default in
  ignore (quintuple warm "t" (src "1"));
  let before = Session.cache_stats warm in
  let got = quintuple warm "t" (src "100") in
  let after = Session.cache_stats warm in
  Alcotest.(check string) "warm = cold"
    (quintuple (Session.of_config Session.Config.default) "t" (src "100"))
    got;
  Alcotest.(check int) "the edited let and the 3 decls after it" 4
    (after.Unit.s_misses - before.Unit.s_misses)

let prop_warm_session_equals_cold =
  QCheck.Test.make ~name:"generated programs: warm session = cold session"
    ~count:40
    QCheck.(make ~print:string_of_int (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      (* one session serves three generated programs in a row; each
         response must be byte-identical to a fresh session's *)
      let warm = Session.of_config Session.Config.default in
      List.for_all
        (fun i ->
          let file = Printf.sprintf "g%d" i in
          let src =
            Pretty.exp_to_string (Gen.program_of_seed (seed + (i * 131)))
          in
          let from_warm = quintuple warm file src in
          let from_cold = quintuple (Session.of_config Session.Config.default) file src in
          from_warm = from_cold)
        [ 0; 1; 2 ])

let count_code code report =
  List.length
    (List.filter
       (fun (d : Fg_util.Diag.diagnostic) -> d.code = code)
       report.Session.diagnostics)

let test_warnings_replayed_once () =
  (* FG0701/FG0702 are emitted while checking a declaration; when the
     declaration is served from cache they must be REPLAYED — present
     exactly once, not zero times and not twice. *)
  let src =
    "concept N<t> { m : t; } in\n\
     model N<int> { m = 1; } in\n\
     model N<int> { m = 2; } in\n\
     let f = tfun t where N<t> => fun (x : int) => x in\n\
     f[int](N<int>.m)"
  in
  let s = Session.of_config Session.Config.default in
  let cold = Session.run_full ~file:"w" s src in
  let warm = Session.run_full ~file:"w" s src in
  List.iter
    (fun code ->
      Alcotest.(check int) (code ^ " cold") 1 (count_code code cold);
      Alcotest.(check int) (code ^ " replayed once") 1 (count_code code warm))
    [ "FG0701"; "FG0702" ];
  Alcotest.(check string) "identical reports"
    (Fg_util.Json.to_string (Jsonview.json_of_run_report ~file:"w" cold))
    (Fg_util.Json.to_string (Jsonview.json_of_run_report ~file:"w" warm))

let test_repl_redefinition_shadows () =
  (* The REPL path: extend with x, extend again redefining x.  The new
     session sees the new binding and the old session keeps the old
     one. *)
  let base = Session.of_config Session.Config.default in
  let s1 = Session.extend base "let x = 1 in" in
  let o1 = Session.run ~file:"r" s1 "x + 0" in
  Alcotest.(check bool) "x = 1" true (o1.value = Interp.FlInt 1);
  let s2 = Session.extend s1 "let x = 2 in" in
  let o2 = Session.run ~file:"r" s2 "x + 0" in
  Alcotest.(check bool) "x = 2" true (o2.value = Interp.FlInt 2);
  let o1' = Session.run ~file:"r" s1 "x + 0" in
  Alcotest.(check bool) "old session still 1" true
    (o1'.value = Interp.FlInt 1)

let test_global_overlap_replayed () =
  (* Under Global resolution a checked model records its overlap entry;
     a replayed unit must record it again, or a later overlapping model
     passes on a warm run that failed cold.  Both a program's own
     models and the prelude's (replayed into a second session over the
     same cache) count. *)
  let cache = Unit.create_cache () in
  let global () =
    Session.of_config ~cache
      {
        (Session.Config.with_standard_prelude Session.Config.default) with
        resolution = Resolution.Global;
      }
  in
  let code s src =
    match Session.run_result ~file:"g" s src with
    | Ok _ -> "ok"
    | Error d -> d.Fg_util.Diag.code
  in
  let own =
    "concept N<t> { m : t; } in model N<int> { m = 1; } in\n\
     model N<int> { m = 2; } in N<int>.m"
  and prelude_overlap =
    "model Monoid<int> { binary_op = fun (a : int, b : int) => a; \
     identity_elt = 0; } in 1"
  in
  let s = global () in
  Alcotest.(check string) "own models, cold" "FG0404" (code s own);
  Alcotest.(check string) "own models, replayed" "FG0404" (code s own);
  Alcotest.(check string) "prelude model, first session" "FG0404"
    (code s prelude_overlap);
  Alcotest.(check string) "prelude model, replayed prelude" "FG0404"
    (code (global ()) prelude_overlap)

let test_unit_cache_eviction () =
  (* A deliberately tiny cache must stay within its bound and evict. *)
  let s =
    Session.of_config ~cache:(Unit.create_cache ~capacity:2 ())
      Session.Config.default
  in
  ignore (Session.run ~file:"t" s (Genprog.shared_prefix ~decls:6 ()));
  let st = Session.cache_stats s in
  Alcotest.(check bool) "evicted" true (st.Unit.s_evictions > 0);
  Alcotest.(check bool) "bounded" true (st.Unit.s_size <= 2);
  (* and eviction never compromises results *)
  let cold = quintuple (Session.of_config Session.Config.default) "t" (Genprog.shared_prefix ~decls:6 ()) in
  let small = quintuple s "t" (Genprog.shared_prefix ~decls:6 ()) in
  Alcotest.(check string) "tiny cache same output" cold small

let test_unit_cache_lru () =
  (* Capacity 3: three one-declaration programs fill the cache, the
     first is replayed, then two more arrive.  Each insert past capacity
     evicts the least recently inserted or replayed unit, so the
     replayed one survives and the untouched ones go, oldest first. *)
  let cache = Unit.create_cache ~capacity:3 () in
  let env = Env.create () in
  let walk x =
    let src = Printf.sprintf "let %s = 1 in 0" x in
    ignore
      (Unit.walk (Some cache) ~source:src ~chain:"" env
         (Parser.exp_of_string ~file:"lru" src))
  in
  List.iter walk [ "a"; "b"; "c"; "a"; "d"; "e" ];
  let st = Unit.stats cache in
  Alcotest.(check (list int)) "hits, misses, evictions, size" [ 1; 5; 2; 3 ]
    [ st.Unit.s_hits; st.Unit.s_misses; st.Unit.s_evictions; st.Unit.s_size ];
  (* a hit inserts nothing, so probing the held units evicts nothing *)
  List.iter walk [ "a"; "d"; "e" ];
  Alcotest.(check int) "survivors: a, d, e" 4 (Unit.stats cache).Unit.s_hits;
  List.iter walk [ "b"; "c" ];
  Alcotest.(check int) "evicted: b, c" 7 (Unit.stats cache).Unit.s_misses

(* What a program records in the memo dies with its run: its scope
   generations are its own, so nothing it records could answer a later
   program.  Hundreds of distinct programs — generated ones declaring
   their own concepts and models, and prelude calls at types no other
   program uses — leave the session's own tier exactly as the warm-up
   left it. *)
let test_memo_does_not_grow () =
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  let program i =
    if i mod 2 = 0 then Pretty.exp_to_string (Gen.program_of_seed i)
    else
      Printf.sprintf
        "let xs = cons[%s](nil[int], nil[%s]) in power(%d, 3)"
        (String.concat "" (List.init (i mod 7) (fun _ -> "list ")) ^ "list int")
        (String.concat "" (List.init (i mod 7) (fun _ -> "list ")) ^ "list int")
        i
  in
  (* both ways a program is checked against a session: the recovering
     run and the plain one *)
  let run i =
    let file = Printf.sprintf "p%d" i in
    if i mod 3 = 0 then ignore (Session.run_result ~file s (program i))
    else ignore (Session.run_full ~file s (program i))
  in
  for i = 0 to 19 do run i done;
  let warm = Session.memo_entries s in
  for i = 20 to 419 do run i done;
  Alcotest.(check int) "session memo tier unchanged" warm (Session.memo_entries s)

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let test_stats () =
  let s = Session.of_config Session.Config.(default |> with_standard_prelude) in
  ignore (Session.run ~file:"t" s "power[int](2, 6)");
  ignore (Session.run ~file:"t" s "power[int](2, 6)");
  let st = Session.stats s in
  Alcotest.(check bool) "check time measured" true (st.check_ns > 0);
  Alcotest.(check bool) "programs counted" true (st.programs >= 2);
  Alcotest.(check bool) "prelude reused" true (st.prelude_reuses >= 2);
  Alcotest.(check bool) "lookups recorded" true (st.model_lookups > 0);
  Alcotest.(check bool) "cache hits recorded" true (st.resolve_hits > 0)

let test_prelude_must_be_declarations () =
  match
    Fg_util.Diag.protect (fun () ->
        Session.of_config
          { Session.Config.default with prelude = Some "1 + 1 in" })
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-declaration prelude accepted"

let suite =
  [
    Alcotest.test_case "prelude run = wrapped run" `Quick
      test_prelude_matches_wrapped;
    Alcotest.test_case "repeat runs identical, caches hit" `Quick
      test_repeat_runs_identical;
    Alcotest.test_case "error then recover" `Quick
      test_session_error_then_recover;
    Alcotest.test_case "overlapping models across programs" `Quick
      test_overlapping_models_across_programs;
    Alcotest.test_case "local models do not leak" `Quick
      test_local_model_does_not_leak;
    Alcotest.test_case "extend adds scope, base untouched" `Quick test_extend;
    Alcotest.test_case "extend rejects bad declarations" `Quick
      test_extend_rejects_bad_decls;
    Alcotest.test_case "batch deterministic across domain counts" `Quick
      test_batch_deterministic;
    Alcotest.test_case "batch with more domains than jobs" `Quick
      test_batch_more_domains_than_jobs;
    Alcotest.test_case "batch domains share no checker state" `Quick
      test_batch_domains_share_nothing;
    Alcotest.test_case "batch keys nothing" `Quick test_batch_keys_nothing;
    Alcotest.test_case "batch keeps only the projection" `Quick
      test_batch_keeps_projection;
    QCheck_alcotest.to_alcotest prop_batch_matches_single_on_generated;
    Alcotest.test_case
      "incremental mutation = cold check, re-checking from the edit on"
      `Quick test_incremental_mutation_equals_cold;
    Alcotest.test_case "length-changing edit re-checks from the edit on"
      `Quick test_length_changing_edit_rechecks_from_edit;
    QCheck_alcotest.to_alcotest prop_warm_session_equals_cold;
    Alcotest.test_case "warnings replayed exactly once" `Quick
      test_warnings_replayed_once;
    Alcotest.test_case "REPL redefinition shadows" `Quick
      test_repl_redefinition_shadows;
    Alcotest.test_case "Global overlaps survive replay" `Quick
      test_global_overlap_replayed;
    Alcotest.test_case "tiny unit cache evicts, stays correct" `Quick
      test_unit_cache_eviction;
    Alcotest.test_case "unit cache evicts least recent" `Quick
      test_unit_cache_lru;
    Alcotest.test_case "memo does not grow across runs" `Quick
      test_memo_does_not_grow;
    Alcotest.test_case "stats observable" `Quick test_stats;
    Alcotest.test_case "prelude must be declarations" `Quick
      test_prelude_must_be_declarations;
  ]
