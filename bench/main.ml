(* Benchmark harness: one Bechamel test per row of DESIGN.md's
   experiment index (E1–E9 paper artifacts, B1–B5 scaling rows).

   The paper has no performance evaluation, so there are no
   paper-vs-measured numbers to match; these benches measure OUR
   implementation and back the shape claims recorded in EXPERIMENTS.md
   (near-linear congruence closure, dictionary-passing overhead vs the
   explicit-argument and monomorphic baselines, scaling in refinement
   depth / model count / where width).

   Run:  dune exec bench/main.exe            (full, ~1 min)
         BENCH_QUOTA=0.05 dune exec bench/main.exe   (quick smoke)

   Output: one line per bench (ns/run from an OLS fit against run
   count), grouped by experiment id, followed by a deterministic
   step-count table for the dictionary-overhead experiment (B3). *)

open Bechamel
open Toolkit
module C = Fg_core
module F = Fg_systemf

let quota =
  match Sys.getenv_opt "BENCH_QUOTA" with
  | Some s -> ( try float_of_string s with _ -> 0.5)
  | None -> 0.5

(* ---------------------------------------------------------------- *)
(* Workload constructors (precomputed outside the timed region)      *)

let fg_parse src = C.Parser.exp_of_string src
let fg_check ast = ignore (C.Check.typecheck ast)
let fg_translate ast = C.Check.translate ast

(* One-shot driving: a fresh session per run, so nothing is amortized. *)
let staged_pipeline name src =
  Test.make ~name
    (Staged.stage (fun () ->
         let s = C.Session.of_config C.Session.Config.default in
         ignore (C.Session.run s src)))

let staged_typecheck name src =
  let ast = fg_parse src in
  Test.make ~name (Staged.stage (fun () -> fg_check ast))

let staged_translate name src =
  let ast = fg_parse src in
  Test.make ~name (Staged.stage (fun () -> ignore (fg_translate ast)))

let staged_parse name src =
  Test.make ~name (Staged.stage (fun () -> ignore (fg_parse src)))

let staged_f_eval name f =
  Test.make ~name (Staged.stage (fun () -> ignore (F.Eval.run f)))

let staged_fg_interp name ast =
  Test.make ~name (Staged.stage (fun () -> ignore (C.Interp.run_program ast)))

(* ---------------------------------------------------------------- *)
(* E1/E2/E3/E4: paper figures through the pipeline                   *)

let fig_tests =
  [
    staged_pipeline "fig1/square_fg" C.Corpus.fig1_square.source;
    staged_pipeline "fig1/square_higher_order"
      C.Corpus.fig1_square_higher_order.source;
    staged_pipeline "fig3/sum_systemf" C.Corpus.fig3_sum.source;
    staged_pipeline "fig5/accumulate" C.Corpus.fig5_accumulate.source;
    staged_pipeline "fig6/overlap" C.Corpus.fig6_overlap.source;
    staged_pipeline "fig7/dict_shape" C.Corpus.fig5_accumulate.source;
  ]

(* E3 decomposed: where does the pipeline spend its time? *)
let phase_tests =
  let src = C.Corpus.merge_example.source in
  let ast = fg_parse src in
  let f = fg_translate ast in
  [
    staged_parse "phase/parse(merge)" src;
    staged_typecheck "phase/typecheck(merge)" src;
    staged_translate "phase/translate(merge)" src;
    Test.make ~name:"phase/f_typecheck(merge)"
      (Staged.stage (fun () -> ignore (F.Typecheck.typecheck f)));
    staged_f_eval "phase/f_eval(merge)" f;
    staged_fg_interp "phase/fg_interp(merge)" ast;
  ]

(* E6/E7: the theorem harness itself *)
let theorem_tests =
  let fig5 = fg_parse C.Corpus.fig5_accumulate.source in
  let merge = fg_parse C.Corpus.merge_example.source in
  [
    Test.make ~name:"thm1/translate_check(fig5)"
      (Staged.stage (fun () -> ignore (C.Theorems.check_translation fig5)));
    Test.make ~name:"thm2/assoc_check(merge)"
      (Staged.stage (fun () -> ignore (C.Theorems.check_translation merge)));
  ]

(* B1: typechecking cost vs program size *)
let scale_typecheck_tests =
  List.concat_map
    (fun n ->
      [
        staged_typecheck
          (Printf.sprintf "scale/typecheck_let_chain_%03d" n)
          (C.Genprog.let_chain n);
      ])
    [ 5; 20; 80 ]
  @ List.map
      (fun n ->
        staged_typecheck
          (Printf.sprintf "scale/typecheck_many_models_%03d" n)
          (C.Genprog.many_models n))
      [ 10; 40; 160 ]
  @ List.map
      (fun n ->
        staged_typecheck
          (Printf.sprintf "scale/typecheck_wide_where_%02d" n)
          (C.Genprog.wide_where n))
      [ 2; 8; 32 ]

(* B5: refinement depth (dictionary nesting) and diamonds *)
let scale_refine_tests =
  List.map
    (fun n ->
      staged_typecheck
        (Printf.sprintf "scale/refine_depth_%02d" n)
        (C.Genprog.refinement_chain n))
    [ 2; 8; 32 ]
  @ List.map
      (fun n ->
        staged_typecheck
          (Printf.sprintf "scale/refine_diamond_%02d" n)
          (C.Genprog.refinement_diamond n))
      [ 2; 4; 8 ]

(* B4/E8: congruence closure scaling *)
let eq_tests =
  List.map
    (fun n ->
      staged_typecheck
        (Printf.sprintf "eq/congruence_chain_%03d" n)
        (C.Genprog.same_type_chain n))
    [ 4; 16; 64 ]
  @ List.map
      (fun n ->
        staged_typecheck
          (Printf.sprintf "eq/assoc_chain_%02d" n)
          (C.Genprog.assoc_chain n))
      [ 2; 8; 24 ]
  @
  (* raw equality queries on a chain of assumptions *)
  let raw n =
    let eq =
      List.fold_left
        (fun eq i ->
          C.Equality.assume eq
            (C.Ast.TVar (Printf.sprintf "t%d" i))
            (C.Ast.TVar (Printf.sprintf "t%d" (i + 1))))
        (C.Equality.empty ())
        (List.init n (fun i -> i))
    in
    let a = C.Ast.TVar "t0" and b = C.Ast.TVar (Printf.sprintf "t%d" n) in
    Test.make ~name:(Printf.sprintf "eq/raw_query_%03d" n)
      (Staged.stage (fun () ->
           (* includes closure (re)build: fresh context each run *)
           let eq = C.Equality.assume eq a a in
           ignore (C.Equality.equal eq a b)))
  in
  [ raw 8; raw 64; raw 256 ]

(* B6: parameterized-model resolution — dictionary chains of depth n,
   and implicit-instantiation inference overhead *)
let extension_tests =
  List.map
    (fun n ->
      staged_typecheck
        (Printf.sprintf "ext/param_model_depth_%02d" n)
        (C.Genprog.param_depth n))
    [ 1; 4; 10 ]
  @ [
      staged_typecheck "ext/implicit_calls_40"
        (C.Genprog.implicit_calls ~implicit:true 40);
      staged_typecheck "ext/explicit_calls_40"
        (C.Genprog.implicit_calls ~implicit:false 40);
    ]

(* B7: the FG-level libraries as end-to-end workloads *)
let library_tests =
  let sort_src n =
    let l = C.Prelude.int_list (List.init n (fun i -> (i * 7919) mod 100)) in
    C.Prelude.wrap (Printf.sprintf "insertion_sort(%s)" l)
  in
  let graph_src n =
    (* a path graph of n vertices; reachability end to end *)
    let adj = C.Graph_lib.adj (List.init n (fun i -> (i, if i + 1 < n then [ i + 1 ] else []))) in
    C.Graph_lib.wrap
      (Printf.sprintf "reachable[list (int * list int)](%s, 0, %d)" adj (n - 1))
  in
  let matmul_src n =
    let m = C.Matrix_lib.int_matrix (List.init n (fun i -> List.init n (fun j -> i + j))) in
    C.Matrix_lib.wrap (Printf.sprintf "using arith in mat_mul[int](%s, %s)" m m)
  in
  [
    staged_pipeline "lib/sort_20" (sort_src 20);
    staged_pipeline "lib/graph_reach_12" (graph_src 12);
    staged_pipeline "lib/matmul_4x4" (matmul_src 4);
  ]

(* B3: dictionary-passing overhead — FG translation vs System F with
   explicit operation arguments vs monomorphic code, on the same
   accumulate workload *)
let overhead_n = 60

let overhead_programs =
  let fg_ast = fg_parse (C.Genprog.accumulate_workload overhead_n) in
  let translated = fg_translate fg_ast in
  let higher_order =
    F.Parser.exp_of_string (C.Genprog.accumulate_workload_systemf overhead_n)
  in
  let mono =
    F.Parser.exp_of_string (C.Genprog.accumulate_workload_mono overhead_n)
  in
  (fg_ast, translated, higher_order, mono)

let overhead_tests =
  let fg_ast, translated, higher_order, mono = overhead_programs in
  [
    staged_f_eval "overhead/dict_translated" translated;
    staged_f_eval "overhead/explicit_args" higher_order;
    staged_f_eval "overhead/monomorphic" mono;
    staged_fg_interp "overhead/fg_direct" fg_ast;
  ]

(* S1: session amortization — the same prelude-using program driven by
   a shared session (prelude checked once, outside the timed region)
   against the one-shot pipeline, which re-checks the prelude text
   every run.  The gap is exactly the per-program cost the session
   design removes.  The two [create_*] rows build a standard-prelude
   session by checking the prelude and by loading the image fgc
   embeds. *)
let session_tests =
  let body =
    Printf.sprintf "accumulate[int](%s)" (C.Prelude.int_list [ 1; 2; 3; 4 ])
  in
  let shared =
    C.Session.of_config C.Session.Config.(default |> with_standard_prelude)
  in
  let no_prelude = C.Session.of_config C.Session.Config.default in
  let standalone = C.Corpus.fig5_accumulate.source in
  let prelude_cfg = C.Session.Config.(default |> with_standard_prelude) in
  [
    Test.make ~name:"session/create_by_check"
      (Staged.stage (fun () -> ignore (C.Session.of_config prelude_cfg)));
    Test.make ~name:"session/create_from_image"
      (Staged.stage (fun () ->
           ignore
             (C.Session.Image.load prelude_cfg
                Fg_prelude_image.Prelude_image.lexical)));
    Test.make ~name:"session/prelude_amortized"
      (Staged.stage (fun () -> ignore (C.Session.run shared body)));
    Test.make ~name:"session/prelude_fresh_pipeline"
      (Staged.stage (fun () ->
           let s = C.Session.of_config C.Session.Config.default in
           ignore (C.Session.run s (C.Prelude.wrap body))));
    Test.make ~name:"session/no_prelude_shared"
      (Staged.stage (fun () -> ignore (C.Session.run no_prelude standalone)));
    Test.make ~name:"session/no_prelude_fresh"
      (Staged.stage (fun () ->
           let s = C.Session.of_config C.Session.Config.default in
           ignore (C.Session.run s standalone)));
  ]

(* ---------------------------------------------------------------- *)
(* Runner                                                            *)

let all_tests =
  fig_tests @ phase_tests @ theorem_tests @ scale_typecheck_tests
  @ scale_refine_tests @ eq_tests @ extension_tests @ library_tests
  @ overhead_tests @ session_tests

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second quota)
      ~stabilize:true ~compaction:false ()
  in
  let grouped = Test.make_grouped ~name:"fg" ~fmt:"%s %s" all_tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  results

let print_results results =
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Fmt.pr "%-40s %14s %10s@." "benchmark" "ns/run" "r^2";
  Fmt.pr "%s@." (String.make 66 '-');
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Fmt.str "%14.1f" e
        | _ -> Fmt.str "%14s" "-"
      in
      let r2 =
        match Analyze.OLS.r_square ols with
        | Some r -> Fmt.str "%10.4f" r
        | None -> Fmt.str "%10s" "-"
      in
      Fmt.pr "%-40s %s %s@." name est r2)
    rows

(* Deterministic step counts for B3: the instrumentation the paper's
   translation invites — how many beta steps does dictionary passing
   add? *)
let print_step_counts () =
  let fg_ast, translated, higher_order, mono = overhead_programs in
  let _, s_tr = F.Eval.run translated in
  let _, s_ho = F.Eval.run higher_order in
  let _, s_mono = F.Eval.run mono in
  let _, s_fg = C.Interp.run_program fg_ast in
  Fmt.pr "@.B3 dictionary-passing overhead (accumulate over %d elements)@."
    overhead_n;
  Fmt.pr "%s@." (String.make 66 '-');
  Fmt.pr "%-40s %10s %12s@." "variant" "beta steps" "vs mono";
  List.iter
    (fun (name, steps) ->
      Fmt.pr "%-40s %10d %11.2fx@." name steps
        (float_of_int steps /. float_of_int s_mono))
    [
      ("monomorphic System F", s_mono);
      ("explicit operation arguments (Fig 3)", s_ho);
      ("FG translation (dictionary passing)", s_tr);
      ("FG direct interpreter", s_fg);
    ]

(* Backend comparison: the instantiation-fanout family (one generic
   called at n distinct ground types, the specializer's scaling
   dimension) under all three backends.  Beta steps and term sizes are
   deterministic; wall-clock is the end-to-end pipeline per run, so it
   includes the specialization passes themselves — specialization pays
   off when evaluation dominates, which the step column quantifies
   independently of machine noise. *)
let print_backend_comparison () =
  let module B = C.Backend in
  let backends = [ B.Dict; B.Stencil; B.Hybrid ] in
  let session_for b =
    C.Session.of_config { C.Session.Config.default with backend = b }
  in
  let rows =
    List.map
      (fun (name, src) ->
        ( name,
          src,
          List.map
            (fun b ->
              let out = C.Session.run (session_for b) src in
              let steps, size, stencils, shared =
                match out.C.Session.spec with
                | None ->
                    ( out.C.Session.translated_steps,
                      F.Ast.exp_size out.C.Session.f_exp, 0, 0 )
                | Some sp ->
                    ( sp.C.Session.spec_steps,
                      F.Ast.exp_size sp.C.Session.spec_exp,
                      sp.C.Session.spec_stats.F.Specialize.st_stencils,
                      sp.C.Session.spec_stats.F.Specialize.st_shared )
              in
              (b, steps, size, stencils, shared))
            backends ))
      [
        ("fanout_04_reps_06", C.Genprog.instantiation_fanout ~reps:6 4);
        ("fanout_08_reps_06", C.Genprog.instantiation_fanout ~reps:6 8);
        ("let_chain_24", C.Genprog.let_chain 24);
        ("param_depth_06", C.Genprog.param_depth 6);
      ]
  in
  Fmt.pr
    "@.S4 specializing backends (beta steps evaluating the final System F \
     term)@.";
  Fmt.pr "%s@." (String.make 78 '-');
  Fmt.pr "%-20s %-8s %8s %10s %9s %7s %9s@." "program" "backend" "steps"
    "vs dict" "exp size" "stencil" "shared";
  List.iter
    (fun (name, _, cells) ->
      let dict_steps =
        match cells with (_, s, _, _, _) :: _ -> s | [] -> 1
      in
      List.iter
        (fun (b, steps, size, stencils, shared) ->
          Fmt.pr "%-20s %-8s %8d %9.2fx %9d %7d %9d@." name (B.to_string b)
            steps
            (float_of_int steps /. float_of_int (max 1 dict_steps))
            size stencils shared)
        cells)
    rows;
  (* Wall clock over the whole pipeline, amortized over [iters] runs
     through one warm session per backend. *)
  let iters = 40 in
  Fmt.pr "@.%-20s %-8s %12s@." "program" "backend" "wall (ms/run)";
  List.iter
    (fun (name, src, _) ->
      List.iter
        (fun b ->
          let s = session_for b in
          ignore (C.Session.run s src);
          let t0 = Unix.gettimeofday () in
          for _ = 1 to iters do
            ignore (C.Session.run s src)
          done;
          let dt = Unix.gettimeofday () -. t0 in
          Fmt.pr "%-20s %-8s %12.3f@." name (B.to_string b)
            (dt *. 1000. /. float_of_int iters))
        backends)
    rows

(* Batch scaling: wall-clock time to check a batch of substantial
   generated programs across domain counts.  Achievable speedup is
   bounded by the machine's core count (printed below); the "stable"
   column checks order stability against the 1-domain run, so this
   doubles as a determinism smoke test. *)
let print_batch_scaling () =
  let jobs =
    List.concat
      (List.init 3 (fun round ->
           List.map
             (fun (name, src) -> (Printf.sprintf "%s#%d" name round, src))
             [
               ("let_chain_80", C.Genprog.let_chain 80);
               ("many_models_160", C.Genprog.many_models 160);
               ("wide_where_32", C.Genprog.wide_where 32);
               ("refine_diamond_08", C.Genprog.refinement_diamond 8);
               ("same_type_chain_64", C.Genprog.same_type_chain 64);
               ("assoc_chain_24", C.Genprog.assoc_chain 24);
             ]))
  in
  let time_batch domains =
    let s = C.Session.of_config C.Session.Config.default in
    let t0 = Unix.gettimeofday () in
    let results = C.Session.run_batch ~domains s jobs in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, results)
  in
  let base_dt, base = time_batch 1 in
  Fmt.pr
    "@.S2 batch scaling (%d generated programs, full pipeline each; %d \
     core(s) available)@."
    (List.length jobs)
    (C.Session.default_domains ());
  Fmt.pr "%s@." (String.make 66 '-');
  Fmt.pr "%-12s %12s %10s %8s@." "domains" "wall (ms)" "speedup" "stable";
  List.iter
    (fun domains ->
      let dt, results = if domains = 1 then (base_dt, base) else time_batch domains in
      let stable =
        List.for_all2
          (fun (n1, r1) (n2, r2) ->
            n1 = n2
            &&
            match (r1, r2) with
            | Ok (a : C.Session.outcome), Ok (b : C.Session.outcome) ->
                C.Interp.flat_equal a.value b.value
            | Error _, Error _ -> true
            | _ -> false)
          base results
      in
      Fmt.pr "%-12d %12.1f %9.2fx %8s@." domains (dt *. 1000.)
        (base_dt /. dt)
        (if stable then "yes" else "NO"))
    [ 1; 2; 4; C.Session.default_domains () ]

(* Incremental frontend: a family of programs sharing a long
   declaration prefix, each differing from the others only in one
   declaration.  Cold checks a fresh session per member; warm shares
   one session, so every member past the first re-checks the edited
   declaration, every declaration after it, and the residual body.
   Editing the last declaration re-checks one unit; editing the first
   re-checks them all, the prefix rule's worst case, which should cost
   about what a cold check costs.  One round's check time is mostly
   minor-GC pauses, so each speedup is measured over several rounds
   (each with a fresh warm session) and the median is reported;
   tools/ci.sh greps the last-declaration line and asserts the 3x bar,
   and the first-declaration line is reported only. *)
let print_incremental () =
  let decls = 120 and members = 20 and rounds = 5 in
  (* Phase times come from telemetry so the re-check speedup isolates
     what the unit cache accelerates (checking); parsing the edited
     source is inherently whole-program and identical on both sides. *)
  let module T = Fg_util.Telemetry in
  let phases f =
    let t0 = Unix.gettimeofday () in
    let before = T.snapshot () in
    f ();
    let d = T.diff (T.snapshot ()) before in
    ( (Unix.gettimeofday () -. t0) *. 1000.,
      float_of_int d.T.parse_ns /. 1e6,
      float_of_int d.T.check_ns /. 1e6 )
  in
  let row round strategy (wall, parse, check) =
    Fmt.pr "%-6s %-28s %10.1f %10.1f %10.1f@." round strategy wall parse check
  in
  (* The median cold/warm check-time ratio with declaration [edit_at]
     edited. *)
  let group ~edit_at what =
    let member i = C.Genprog.shared_prefix ~edit_at ~edit:i ~decls () in
    Fmt.pr
      "@.S3 incremental re-check (%d members sharing a %d-declaration \
       prefix, edit %s decl, %d rounds)@."
      members decls what rounds;
    Fmt.pr "%s@." (String.make 73 '-');
    Fmt.pr "%-6s %-28s %10s %10s %10s@." "round" "strategy" "wall (ms)"
      "parse (ms)" "check (ms)";
    let results =
      List.init rounds (fun r ->
          let ((_, _, cold_check) as cold) =
            phases (fun () ->
                for i = 1 to members do
                  ignore
                    (C.Session.typecheck ~file:"bench"
                       (C.Session.of_config C.Session.Config.default)
                       (member i))
                done)
          in
          let s = C.Session.of_config C.Session.Config.default in
          ignore (C.Session.typecheck ~file:"bench" s (member 0));
          let ((_, _, warm_check) as warm) =
            phases (fun () ->
                for i = 1 to members do
                  ignore (C.Session.typecheck ~file:"bench" s (member i))
                done)
          in
          let round = string_of_int (r + 1) in
          row round "cold (fresh session each)" cold;
          row round "warm (shared unit cache)" warm;
          (cold_check /. warm_check, C.Session.cache_stats s))
    in
    let speedups = List.map fst results in
    let st = snd (List.nth results (rounds - 1)) in
    Fmt.pr "unit cache (last round): %d hits, %d misses, %d entries@."
      st.C.Unit.s_hits st.C.Unit.s_misses st.C.Unit.s_size;
    Fmt.pr "speedup per round: %s@."
      (String.concat " " (List.map (Printf.sprintf "%.2f") speedups));
    List.nth (List.sort compare speedups) (rounds / 2)
  in
  let last = group ~edit_at:(decls - 1) "last" in
  let first = group ~edit_at:0 "first" in
  Fmt.pr "incremental re-check speedup (edit last decl): %.2fx (median of %d \
          rounds)@."
    last rounds;
  Fmt.pr "first-declaration edit, cold/warm check time: %.2fx (median of %d \
          rounds; not gated)@."
    first rounds

let () =
  Fmt.pr "FG benchmark harness (quota %.2fs per test)@." quota;
  Fmt.pr "%s@.@." (String.make 66 '=');
  let results = run_benchmarks () in
  print_results results;
  print_step_counts ();
  print_backend_comparison ();
  print_batch_scaling ();
  print_incremental ()
