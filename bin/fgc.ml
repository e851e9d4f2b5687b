(* fgc: the System FG command-line driver.

   Subcommands:
     check      type check a program, print its FG type
     translate  print the System F translation (optionally its type)
     run        run the full pipeline and print the value
     verify     check the translation-preserves-typing theorem
     batch      run many programs through the pipeline, in parallel
     corpus     list or run the built-in paper corpus
     eq         decide a same-type query under assumptions

   All program-driving subcommands go through a {!Fg_core.Session}:
   with [--prelude] every session loads the standard prelude from the
   image checked when fgc was built (see lib/image/), and [--stats]
   reports the phase timers and cache counters the session
   accumulated.  Programs are read from a file argument or from stdin
   ("-"). *)

open Cmdliner
module C = Fg_core
module F = Fg_systemf
module Diag = Fg_util.Diag
module Telemetry = Fg_util.Telemetry
module Json = Fg_util.Json
module Profile = Fg_util.Profile

let read_input = function
  | "-" ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b stdin 4096
         done
       with End_of_file -> ());
      ("<stdin>", Buffer.contents b)
  | path -> (
      match open_in_bin path with
      | exception Sys_error msg -> Diag.error Diag.Parser "cannot read %s" msg
      | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          (path, s))

(* ---------------------------------------------------------------- *)
(* JSON views — shared with the server so `fgc serve` payloads are
   byte-identical to one-shot output (see lib/fg/jsonview.ml). *)

let json_of_diags = C.Jsonview.json_of_diags
let json_of_outcome = C.Jsonview.json_of_outcome
let json_of_failure = C.Jsonview.json_of_failure
let print_json j = print_endline (Json.to_string j)

(* ---------------------------------------------------------------- *)
(* Common arguments                                                  *)

(* Run a command body that reports its own exit code; on a diagnostic
   print it (as JSON when asked) and exit non-zero.  With [--stats],
   the telemetry accumulated by the command — timers and cache counters
   included — goes to stderr either way. *)
let handle_code ?(json = false) ?(stats = false) f =
  let before = Telemetry.snapshot () in
  let finish code =
    if stats then
      Fmt.epr "%a@." Telemetry.pp
        (Telemetry.diff (Telemetry.snapshot ()) before);
    code
  in
  match f () with
  | code -> finish code
  | exception Diag.Error d ->
      if json then
        print_json (Json.Obj [ ("ok", Json.Bool false);
                               ("diagnostics", json_of_diags [ d ]) ])
      else Fmt.epr "%a@." Diag.pp d;
      finish 1

let handle ?json ?stats f = handle_code ?json ?stats (fun () -> f (); 0)

let expr_arg =
  let doc = "Give the program inline instead of reading a file." in
  Arg.(value & opt (some string) None & info [ "e"; "expr" ] ~docv:"SRC" ~doc)

let global_flag =
  let doc =
    "Use global (Haskell-style) model resolution: overlapping models \
     anywhere in the program are rejected.  The default is the paper's \
     lexically scoped resolution."
  in
  Arg.(value & flag & info [ "global-models" ] ~doc)

let prelude_flag =
  let doc = "Check the program under the standard prelude (concepts, \
             models for int/bool/list int, and the generic algorithms), \
             cached in the session and checked only once." in
  Arg.(value & flag & info [ "p"; "prelude" ] ~doc)

let stats_flag =
  let doc = "Report phase wall times and cache counters (prelude reuse, \
             model-resolution hits, congruence rebuilds, stencil \
             counters) on stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist checked compilation units under $(docv) and reuse them \
     across invocations: a warm run replays every unchanged declaration \
     from disk instead of re-checking it, with byte-identical output.  \
     Entries only decode in the compiler build that wrote them; \
     anything else reads as a miss."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_max_bytes_arg =
  let doc =
    "Size bound for $(b,--cache-dir); past it the oldest-accessed \
     entries are evicted (default: unbounded)."
  in
  Arg.(value & opt (some int) None
       & info [ "cache-max-bytes" ] ~docv:"BYTES" ~doc)

(* Kept a raw string at the cmdliner layer: unknown names become the
   stable FG1001 configuration diagnostic (through
   [Backend.of_string_exn] inside the command body), not a cmdliner
   usage error — every command accepts and rejects the flag
   identically. *)
let backend_arg =
  let doc =
    "Translation backend: $(b,dict) (the paper's dictionary passing), \
     $(b,stencil) (specialize every ground instantiation), \
     $(b,hybrid) (share stencils between same-shape instantiations, \
     gcshape-style), or $(b,guided) (specialize only the \
     instantiations a $(b,--profile) marks hot).  The specializing \
     backends are re-checked in System F and evaluated against the \
     dictionary semantics."
  in
  Arg.(value & opt string "dict" & info [ "backend" ] ~docv:"NAME" ~doc)

(* -------------------------------------------------------------- *)
(* Profiles: --profile feeds a recorded workload back in (the guided
   backend and the server's auto-sizing consult it); --profile-out
   turns collection on and writes the canonical profile when the
   command finishes. *)

let profile_arg =
  let doc =
    "Feed a recorded workload profile back in: the $(b,guided) backend \
     stencils only the instantiations the profile marks hot, \
     everything cold keeps dictionary passing (see docs/DESIGN.md \
     S23).  Unreadable or malformed files raise FG1003."
  in
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE" ~doc)

let profile_out_arg =
  let doc =
    "Record a workload profile (hot instantiations, concept \
     resolutions, unit-cache pressure) over this command and write it \
     to $(docv) as canonical sorted-key JSON — byte-stable for CI \
     diffing, mergeable with $(b,fgc profile merge)."
  in
  Arg.(value & opt (some string) None
       & info [ "profile-out" ] ~docv:"FILE" ~doc)

(* Assemble and write the one-shot profile for a finished command:
   instantiation/resolution counts from the global collection
   registries, cache pressure from the driving session (batch domains
   keep their own caches; only the calling session's counters are
   summarized), the backend mix from what this command asked for. *)
let write_profile_out path ~programs s =
  let st = C.Session.cache_stats s in
  let unit_cache =
    {
      Profile.c_hits = st.C.Unit.s_hits;
      c_misses = st.C.Unit.s_misses;
      c_evictions = st.C.Unit.s_evictions;
      c_invalidations = st.C.Unit.s_invalidations;
      c_size = st.C.Unit.s_size;
      c_capacity = st.C.Unit.s_capacity;
    }
  in
  Profile.save path
    (Profile.collected ~programs ~unit_cache
       ~backends:[ (C.Backend.to_string (C.Session.backend s), programs) ]
       ~requests:[] ())

let format_arg =
  let doc = "Output format: $(b,text) (default) or $(b,json)." in
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT" ~doc)

(* The session every subcommand drives: prelude cached at creation when
   requested, so per-program work excludes it. *)
let make_session ?(backend = "dict") ?cache_dir ?cache_max_bytes ?profile
    ~global ~prelude () =
  C.Session.of_config
    (C.Session.Config.of_flags ?cache_dir ?cache_max_bytes ?profile ~prelude
       ~global_models:global ~backend:(C.Backend.of_string_exn backend) ())

let get_source file expr =
  match expr with Some s -> ("<expr>", s) | None -> read_input file

let file_pos_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE"
         ~doc:"Input program file ('-' for stdin).")

(* ---------------------------------------------------------------- *)
(* check                                                             *)

let check_cmd =
  let run file expr global prelude backend cache_dir cache_max_bytes
      stats =
    handle ~stats (fun () ->
        let name, src = get_source file expr in
        let s =
          make_session ~backend ?cache_dir ?cache_max_bytes ~global
            ~prelude ()
        in
        Fmt.pr "%a@." C.Pretty.pp_ty (C.Session.typecheck ~file:name s src))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Type check an FG program and print its type")
    Term.(const run $ file_pos_arg $ expr_arg $ global_flag
          $ prelude_flag $ backend_arg $ cache_dir_arg
          $ cache_max_bytes_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* translate                                                         *)

let translate_cmd =
  let run file expr global prelude backend cache_dir cache_max_bytes
      show_type stats =
    handle ~stats (fun () ->
        let name, src = get_source file expr in
        let s =
          make_session ~backend ?cache_dir ?cache_max_bytes ~global
            ~prelude ()
        in
        let f = C.Session.translate ~file:name s src in
        (* Off the Dict backend, print the partially evaluated program
           (stencils and hoisted dictionaries on the spine). *)
        let f =
          match C.Backend.specialize_mode (C.Session.backend s) with
          | None -> f
          | Some mode -> fst (F.Specialize.specialize ~mode f)
        in
        Fmt.pr "%a@." F.Pretty.pp_exp f;
        if show_type then
          Fmt.pr "// : %a@." F.Pretty.pp_ty (F.Typecheck.typecheck f))
  in
  let show_type =
    Arg.(value & flag
         & info [ "t"; "type" ] ~doc:"Also print the System F type.")
  in
  Cmd.v
    (Cmd.info "translate"
       ~doc:
         "Translate an FG program to System F (dictionary passing, or a \
          specialized backend with $(b,--backend))")
    Term.(
      const run $ file_pos_arg $ expr_arg $ global_flag $ prelude_flag
      $ backend_arg $ cache_dir_arg $ cache_max_bytes_arg $ show_type
      $ stats_flag)

(* ---------------------------------------------------------------- *)
(* run                                                               *)

let run_cmd =
  let run file expr global prelude backend cache_dir cache_max_bytes
      profile profile_out verbose format stats =
    handle_code ~json:(format = `Json) ~stats (fun () ->
        let name, src = get_source file expr in
        let profile = Option.map Profile.load profile in
        if profile_out <> None then Profile.set_collecting true;
        let s =
          make_session ~backend ?cache_dir ?cache_max_bytes ?profile ~global
            ~prelude ()
        in
        (* The recovering pipeline: every independent error in the
           program comes back in one invocation, plus any warnings. *)
        let report = C.Session.run_full ~file:name s src in
        let diags = report.C.Session.diagnostics in
        (match format with
        | `Json -> print_json (C.Jsonview.json_of_run_report ~file:name report)
        | `Text -> (
            List.iter (fun d -> Fmt.epr "%a@." Diag.pp d) diags;
            match report.C.Session.outcome with
            | None -> ()
            | Some out ->
                if verbose then begin
                  Fmt.pr "type        : %a@." C.Pretty.pp_ty out.fg_ty;
                  Fmt.pr "value       : %a@." C.Interp.pp_flat out.value;
                  Fmt.pr "direct steps: %d@." out.direct_steps;
                  Fmt.pr "trans steps : %d@." out.translated_steps;
                  (match out.spec with
                  | None -> ()
                  | Some sp ->
                      Fmt.pr "spec steps  : %d (%s: %d stencils, %d shared, \
                              %d fallbacks)@."
                        sp.C.Session.spec_steps
                        (C.Backend.to_string out.backend)
                        sp.C.Session.spec_stats.F.Specialize.st_stencils
                        sp.C.Session.spec_stats.F.Specialize.st_shared
                        sp.C.Session.spec_stats.F.Specialize.st_fallbacks);
                  Fmt.pr "theorem     : %s@."
                    (if out.theorem_holds then "holds" else "VIOLATED")
                end
                else Fmt.pr "%a@." C.Interp.pp_flat out.value));
        Option.iter
          (fun path -> write_profile_out path ~programs:1 s)
          profile_out;
        match report.C.Session.outcome with Some _ -> 0 | None -> 1)
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"Print the type, step counts and theorem status too.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run the full pipeline: check, translate, verify the theorem, \
          evaluate both directly and via the translation, and print the \
          (agreeing) value")
    Term.(
      const run $ file_pos_arg $ expr_arg $ global_flag $ prelude_flag
      $ backend_arg $ cache_dir_arg $ cache_max_bytes_arg $ profile_arg
      $ profile_out_arg $ verbose $ format_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* elaborate                                                         *)

let elaborate_cmd =
  let run file expr global prelude stats =
    handle ~stats (fun () ->
        let name, src = get_source file expr in
        let s = make_session ~global ~prelude () in
        let _, elaborated, _ = C.Session.elaborate ~file:name s src in
        Fmt.pr "%a@." C.Pretty.pp_exp elaborated)
  in
  Cmd.v
    (Cmd.info "elaborate"
       ~doc:
         "Print the elaborated FG program (implicit instantiations made \
          explicit, member defaults filled in)")
    Term.(const run $ file_pos_arg $ expr_arg $ global_flag
          $ prelude_flag $ stats_flag)

(* ---------------------------------------------------------------- *)
(* verify                                                            *)

let verify_cmd =
  let run file expr global prelude format stats =
    handle ~json:(format = `Json) ~stats (fun () ->
        let name, src = get_source file expr in
        let s = make_session ~global ~prelude () in
        let report = C.Session.verify ~file:name s src in
        match format with
        | `Json ->
            print_json
              (Json.Obj
                 [ ("file", Json.Str name);
                   ("ok", Json.Bool true);
                   ("fg_type",
                    Json.Str (C.Pretty.ty_to_string report.fg_ty));
                   ("translated_type",
                    Json.Str (F.Pretty.ty_to_string report.expected_f_ty));
                   ("systemf_type",
                    Json.Str (F.Pretty.ty_to_string report.f_ty));
                   ("theorem", Json.Bool true) ])
        | `Text ->
            Fmt.pr "FG type          : %a@." C.Pretty.pp_ty report.fg_ty;
            Fmt.pr "translated type  : %a@." F.Pretty.pp_ty
              report.expected_f_ty;
            Fmt.pr "System F assigns : %a@." F.Pretty.pp_ty report.f_ty;
            Fmt.pr "theorem          : holds@.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check the paper's Theorems 1/2 on this program: the translation \
          type checks in System F at the translated type")
    Term.(const run $ file_pos_arg $ expr_arg $ global_flag
          $ prelude_flag $ format_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* batch                                                             *)

let domains_arg =
  let doc = "Number of OCaml domains to verify across (default: the \
             runtime's recommendation)." in
  Arg.(value & opt (some int) None & info [ "j"; "domains" ] ~docv:"N" ~doc)

let batch_cmd =
  let run files global prelude backend cache_dir cache_max_bytes
      profile profile_out domains format stats =
    handle ~json:(format = `Json) ~stats (fun () ->
        let jobs = List.map read_input files in
        let profile = Option.map Profile.load profile in
        if profile_out <> None then Profile.set_collecting true;
        let s =
          make_session ~backend ?cache_dir ?cache_max_bytes ?profile ~global
            ~prelude ()
        in
        let results = C.Session.run_batch ?domains s jobs in
        Option.iter
          (fun path ->
            write_profile_out path ~programs:(List.length jobs) s)
          profile_out;
        let failed = ref 0 in
        (match format with
        | `Json ->
            print_json
              (Json.List
                 (List.map
                    (fun (name, r) ->
                      match r with
                      | Ok o -> json_of_outcome ~file:name o
                      | Error d ->
                          incr failed;
                          json_of_failure ~file:name d)
                    results))
        | `Text ->
            List.iter
              (fun (name, r) ->
                match r with
                | Ok (o : C.Session.outcome) ->
                    Fmt.pr "%-40s %a@." name C.Interp.pp_flat o.value
                | Error d ->
                    incr failed;
                    Fmt.pr "%-40s ERROR %a@." name Diag.pp d)
              results;
            Fmt.pr "%d/%d ok@."
              (List.length results - !failed)
              (List.length results));
        if !failed > 0 then
          Diag.error Diag.Eval "%d of %d programs failed" !failed
            (List.length results))
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE"
           ~doc:"Program files to run ('-' for stdin).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run many FG programs through the full pipeline, fanned out over \
          OCaml domains with a shared session configuration; output order \
          matches the argument order regardless of the domain count")
    Term.(const run $ files $ global_flag $ prelude_flag $ backend_arg
          $ cache_dir_arg $ cache_max_bytes_arg $ profile_arg
          $ profile_out_arg $ domains_arg $ format_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* corpus                                                            *)

let corpus_cmd =
  let run name_opt all backend cache_dir cache_max_bytes profile profile_out
      domains format stats =
    handle ~json:(format = `Json) ~stats (fun () ->
        let profile = Option.map Profile.load profile in
        if profile_out <> None then Profile.set_collecting true;
        match (name_opt, all) with
        | None, false ->
            List.iter
              (fun (e : C.Corpus.entry) ->
                Fmt.pr "%-30s %-18s %s@." e.name e.paper e.description)
              C.Corpus.all
        | None, true ->
            (* Run every entry, in parallel; an entry passes when its
               outcome matches its stated expectation. *)
            let s =
              make_session ~backend ?cache_dir ?cache_max_bytes ?profile
                ~global:false ~prelude:false ()
            in
            let jobs =
              List.map (fun (e : C.Corpus.entry) -> (e.name, e.source))
                C.Corpus.all
            in
            let results = C.Session.run_batch ?domains s jobs in
            Option.iter
              (fun path ->
                write_profile_out path ~programs:(List.length jobs) s)
              profile_out;
            let failed = ref 0 in
            let verdicts =
              List.map2
                (fun (e : C.Corpus.entry) (name, r) ->
                  let ok =
                    match (e.expected, r) with
                    | C.Corpus.Value expect, Ok (o : C.Session.outcome) ->
                        C.Interp.flat_equal o.value expect
                    | C.Corpus.Fails phase, Error (d : Diag.diagnostic) ->
                        d.phase = phase
                    | C.Corpus.Value _, Error _
                    | C.Corpus.Fails _, Ok _ -> false
                  in
                  if not ok then incr failed;
                  (name, ok, r))
                C.Corpus.all results
            in
            (match format with
            | `Json ->
                print_json
                  (Json.List
                     (List.map
                        (fun (name, ok, r) ->
                          match r with
                          | Ok o ->
                              (match json_of_outcome ~file:name o with
                              | Json.Obj fields ->
                                  Json.Obj
                                    (("expected_ok", Json.Bool ok) :: fields)
                              | j -> j)
                          | Error d ->
                              (match json_of_failure ~file:name d with
                              | Json.Obj fields ->
                                  Json.Obj
                                    (("expected_ok", Json.Bool ok) :: fields)
                              | j -> j))
                        verdicts))
            | `Text ->
                List.iter
                  (fun (name, ok, r) ->
                    let show =
                      match r with
                      | Ok (o : C.Session.outcome) ->
                          C.Interp.flat_to_string o.value
                      | Error (d : Diag.diagnostic) ->
                          "rejected: " ^ Diag.phase_name d.phase
                    in
                    Fmt.pr "%-30s %s %s@." name
                      (if ok then "ok  " else "FAIL")
                      show)
                  verdicts;
                Fmt.pr "%d/%d as expected@."
                  (List.length verdicts - !failed)
                  (List.length verdicts));
            if !failed > 0 then
              Diag.error Diag.Eval "%d corpus entries off expectation"
                !failed
        | Some name, _ -> (
            let e = C.Corpus.find name in
            Fmt.pr "// %s (%s)@.%s@.@." e.description e.paper e.source;
            let s =
              make_session ~backend ?cache_dir ?cache_max_bytes ?profile
                ~global:false ~prelude:false ()
            in
            let finish () =
              Option.iter
                (fun path -> write_profile_out path ~programs:1 s)
                profile_out
            in
            match e.expected with
            | C.Corpus.Value expect ->
                let out = C.Session.run ~file:e.name s e.source in
                Fmt.pr "value: %a (expected %a)@." C.Interp.pp_flat out.value
                  C.Interp.pp_flat expect;
                finish ()
            | C.Corpus.Fails phase -> (
                match C.Session.run_result ~file:e.name s e.source with
                | Error d ->
                    Fmt.pr "rejected as expected (%s): %s@."
                      (Diag.phase_name phase)
                      (Diag.to_string d);
                    finish ()
                | Ok _ -> failwith "expected failure but program succeeded")))
  in
  let entry_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:"Corpus entry to show and run (omit to list).")
  in
  let all_flag =
    Arg.(value & flag
         & info [ "all" ]
             ~doc:"Run every corpus entry (in parallel) and check each \
                   against its expectation.")
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:"List or run the built-in corpus of paper example programs")
    Term.(const run $ entry_arg $ all_flag $ backend_arg $ cache_dir_arg
          $ cache_max_bytes_arg $ profile_arg $ profile_out_arg
          $ domains_arg $ format_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* eq: same-type queries                                             *)

let eq_cmd =
  let run assumptions query =
    handle (fun () ->
        let eq =
          List.fold_left
            (fun eq src ->
              match C.Parser.constr_of_string src with
              | C.Ast.CSame (a, b) -> C.Equality.assume eq a b
              | C.Ast.CModel _ ->
                  failwith "assumptions must be same-type constraints (a == b)")
            (C.Equality.empty ()) assumptions
        in
        match C.Parser.constr_of_string query with
        | C.Ast.CSame (a, b) ->
            Fmt.pr "%b@." (C.Equality.equal eq a b);
            Fmt.pr "repr lhs: %a@." C.Pretty.pp_ty (C.Equality.repr eq a);
            Fmt.pr "repr rhs: %a@." C.Pretty.pp_ty (C.Equality.repr eq b)
        | C.Ast.CModel _ -> failwith "query must be a same-type constraint")
  in
  let assumptions =
    Arg.(value & opt_all string []
         & info [ "a"; "assume" ] ~docv:"EQ"
             ~doc:"Assumed equality, e.g. 'C<int>.elt == int' (repeatable).")
  in
  let query =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"QUERY" ~doc:"Query equality, e.g. 'a == b'.")
  in
  Cmd.v
    (Cmd.info "eq"
       ~doc:
         "Decide a same-type query under assumptions (congruence closure), \
          printing the verdict and both representatives")
    Term.(const run $ assumptions $ query)

(* ---------------------------------------------------------------- *)
(* fuzz                                                              *)

let fuzz_cmd =
  let run seed count size mutants backend domains format save_dir stats guided
      corpus_dir profile profile_out =
    handle_code ~json:(format = `Json) ~stats (fun () ->
        let cfg =
          { C.Fuzz.seed; count; size; mutants;
            backend = C.Backend.of_string_exn backend;
            profile = Option.map Profile.load profile;
            guided = guided || corpus_dir <> None; corpus_dir }
        in
        if profile_out <> None then Profile.set_collecting true;
        let report = C.Fuzz.run ?domains cfg in
        Option.iter
          (fun path ->
            Profile.set_collecting false;
            Profile.save path
              (Profile.collected ~programs:report.C.Fuzz.r_generated
                 ~unit_cache:Profile.cache_zero
                 ~backends:
                   [ (C.Backend.to_string cfg.C.Fuzz.backend,
                      report.C.Fuzz.r_generated) ]
                 ~requests:[] ()))
          profile_out;
        let saved =
          match save_dir with
          | Some dir when report.C.Fuzz.r_failures <> [] ->
              C.Fuzz.save_failures ~dir report
          | _ -> []
        in
        (match format with
        | `Json -> print_json (C.Fuzz.report_to_json report)
        | `Text ->
            Fmt.pr "generated %d programs (seed %d, size %d), %d mutants@."
              report.C.Fuzz.r_generated seed size report.C.Fuzz.r_mutants_run;
            if report.C.Fuzz.r_coverage <> [] then
              Fmt.pr "coverage: %d decision points (%d hits)@."
                (Fg_util.Coverage.distinct report.C.Fuzz.r_coverage)
                (Fg_util.Coverage.total report.C.Fuzz.r_coverage);
            if report.C.Fuzz.r_config.C.Fuzz.guided then
              Fmt.pr
                "corpus: %d entries (%d new, %d candidates mutated from \
                 corpus)@."
                report.C.Fuzz.r_corpus_size report.C.Fuzz.r_corpus_added
                report.C.Fuzz.r_from_corpus;
            List.iter
              (fun (f : C.Fuzz.failure) ->
                Fmt.pr "FAIL #%d [%s] %s@."
                  f.C.Fuzz.f_index
                  (C.Fuzz.oracle_name f.C.Fuzz.f_oracle)
                  f.C.Fuzz.f_message;
                Fmt.pr "  shrunk (%d nodes):@." f.C.Fuzz.f_shrunk_nodes;
                String.split_on_char '\n' f.C.Fuzz.f_shrunk
                |> List.iter (fun l -> Fmt.pr "    %s@." l))
              report.C.Fuzz.r_failures;
            List.iter (fun p -> Fmt.pr "saved %s@." p) saved;
            if report.C.Fuzz.r_failures = [] then Fmt.pr "all oracles ok@."
            else
              Fmt.pr "%d oracle failure(s)@."
                (List.length report.C.Fuzz.r_failures));
        if report.C.Fuzz.r_failures = [] then 0 else 1)
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Master seed; the whole run is a pure function of it.")
  in
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let size_arg =
    Arg.(value & opt int 30
         & info [ "size" ] ~docv:"N"
             ~doc:"Size budget per generated program (AST-node scale).")
  in
  let mutants_arg =
    Arg.(value & opt int 2
         & info [ "mutants" ] ~docv:"N"
             ~doc:"Corrupted variants per program for the recovery oracle.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save-failures" ] ~docv:"DIR"
             ~doc:"Write each failure's shrunk counterexample (original \
                   attached in comments) under $(docv).")
  in
  let guided_flag =
    Arg.(value & flag
         & info [ "guided" ]
             ~doc:"Coverage-guided mode: mutate from a corpus of \
                   coverage-adding inputs instead of generating blindly, \
                   and report the decision-point coverage map.")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus-dir" ] ~docv:"DIR"
             ~doc:"On-disk corpus of minimized coverage-adding inputs; \
                   entries found there seed mutation and new ones are \
                   written back. Implies $(b,--guided).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random well-typed FG programs and check them against \
          three differential oracles: theorem/semantic agreement, \
          pretty-print/parse round-trip, and error recovery on corrupted \
          variants; failures are shrunk before reporting")
    Term.(const run $ seed_arg $ count_arg $ size_arg $ mutants_arg
          $ backend_arg $ domains_arg $ format_arg $ save_arg $ stats_flag
          $ guided_flag $ corpus_arg $ profile_arg $ profile_out_arg)

(* ---------------------------------------------------------------- *)
(* serve: the compiler-service daemon                                 *)

module Server = Fg_server.Server
module Client = Fg_server.Client
module Protocol = Fg_server.Protocol

let socket_arg =
  let doc = "Unix socket path to listen on / connect to (ignored when \
             $(b,--port) is given)." in
  Arg.(value & opt string "fgc.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "TCP port to listen on / connect to instead of a Unix \
             socket (0 lets the OS pick when serving)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Host for $(b,--port)." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let address_of ~socket ~port ~host =
  match port with Some p -> `Tcp (host, p) | None -> `Unix socket

let serve_cmd =
  let run socket port host workers max_queue timeout_ms max_frame fuel
      cache_dir cache_max_bytes profile profile_out verbose =
    handle_code (fun () ->
        let address = address_of ~socket ~port ~host in
        let base = Server.default_config address in
        let cfg =
          {
            base with
            Server.workers =
              (match workers with Some w -> w | None -> base.Server.workers);
            max_queue;
            request_timeout_ms = timeout_ms;
            max_frame;
            fuel = (if fuel = 0 then None else Some fuel);
            cache_dir;
            cache_max_bytes;
            profile = Option.map Profile.load profile;
            profile_out;
            log = verbose;
          }
        in
        let t = Server.create cfg in
        (match Server.bound_address t with
        | `Unix path -> Fmt.epr "fgc serve: listening on %s@." path
        | `Tcp (h, p) -> Fmt.epr "fgc serve: listening on %s:%d@." h p);
        (* Signal handlers only flip an atomic (no locks): the accept
           loop notices and drains gracefully. *)
        let stop _ = Server.signal_stop t in
        (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop)
         with Invalid_argument _ -> ());
        Server.run t;
        0)
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains, each owning warm sessions (default: \
                   the runtime's recommendation).")
  in
  let max_queue =
    Arg.(value & opt int 128
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Bounded request-queue capacity; a full queue answers \
                   $(b,overload) instead of buffering.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "request-timeout-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline (queue wait + service); \
                   expired requests get a structured $(b,timeout) \
                   response.  Requests may override with their own \
                   $(b,timeout_ms).")
  in
  let max_frame =
    Arg.(value & opt int Protocol.default_max_frame
         & info [ "max-frame-bytes" ] ~docv:"N"
             ~doc:"Largest accepted wire frame; bigger length prefixes \
                   are rejected without allocating.")
  in
  let fuel =
    Arg.(value & opt int 10_000_000
         & info [ "fuel" ] ~docv:"STEPS"
             ~doc:"Evaluator step bound per served run (0 = unbounded), \
                   so divergent programs cannot pin a worker.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Log lifecycle events on stderr.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compiler as a persistent daemon: a bounded request \
          queue fans out to worker domains with cached preludes; the \
          length-prefixed JSON protocol serves check/run/translate/\
          fuzz_one/stats/shutdown with deadlines, backpressure and \
          graceful drain (see docs/SERVER.md)")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ workers $ max_queue
          $ timeout_ms $ max_frame $ fuel $ cache_dir_arg
          $ cache_max_bytes_arg $ profile_arg $ profile_out_arg $ verbose)

(* ---------------------------------------------------------------- *)
(* client                                                            *)

let exit_of_status = function
  | Protocol.Ok_ -> 0
  | Protocol.Failed -> 1
  | Protocol.Protocol_error -> 3
  | Protocol.Timeout -> 4
  | Protocol.Overload -> 5
  | Protocol.Shutting_down -> 6

(* Expand directories into their .fg files (sorted), pass files through. *)
let expand_paths paths =
  List.concat_map
    (fun p ->
      if Sys.is_directory p then
        Sys.readdir p |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".fg")
        |> List.sort String.compare
        |> List.map (Filename.concat p)
      else [ p ])
    paths

let contains needle s = Fg_util.Strutil.contains ~needle s

(* The probe: deliberately violate the protocol three ways and check
   the daemon answers each violation correctly and stays up. *)
let run_probe address =
  let expect_status name (r : Protocol.response) status needle =
    if r.Protocol.r_status <> status then
      failwith
        (Printf.sprintf "%s: expected status %s, got %s" name
           (Protocol.status_name status)
           (Protocol.status_name r.Protocol.r_status));
    if not (contains needle r.Protocol.r_payload) then
      failwith
        (Printf.sprintf "%s: payload lacks %s: %s" name needle
           r.Protocol.r_payload)
  in
  (* 1. Valid frame, garbage JSON: connection survives. *)
  let c = Client.connect address in
  Client.send_raw_frame c "this is not json {";
  expect_status "garbage-json" (Client.read_response c)
    Protocol.Protocol_error "FG0803";
  (* ... and the same connection still serves real work. *)
  let r =
    Client.request c
      (Protocol.request ~id:7 ~file:"<probe>" ~source:"1 + 1" Protocol.Run)
  in
  expect_status "post-garbage-run" r Protocol.Ok_ "\"value\": 2";
  Client.close c;
  (* 2. Version mismatch, above and below the one version spoken. *)
  let c = Client.connect address in
  List.iter
    (fun v ->
      Client.send_raw_frame c
        (Printf.sprintf "{\"v\": %d, \"id\": 1, \"kind\": \"run\"}" v);
      expect_status
        (Printf.sprintf "version-mismatch (v%d)" v)
        (Client.read_response c) Protocol.Protocol_error "FG0804")
    [ 999; Protocol.version - 1 ];
  Client.close c;
  (* 3. Oversized length prefix: bounded-allocation reject + close. *)
  let c = Client.connect address in
  Client.send_raw_bytes c "\xFF\xFF\xFF\xFF";
  expect_status "oversized-frame" (Client.read_response c)
    Protocol.Protocol_error "FG0806";
  (match Client.read_response c with
  | exception Client.Client_error _ -> ()
  | _ -> failwith "oversized-frame: expected the server to close");
  Client.close c;
  Fmt.pr "probe ok: garbage JSON, version mismatch and oversized frame \
          all answered correctly@."

(* Human-readable rendering of the stats payload (behind --pretty; the
   default stays the raw JSON that scripts and CI grep).  Generic over
   the payload shape: scalars print as one line, flat objects as one
   key=value line, nested objects (requests, workspace) as a block —
   so new stats sections show up without touching this printer. *)
let print_stats_pretty payload =
  match Json.of_string payload with
  | Error _ -> print_endline payload
  | Ok (Json.Obj fields) ->
      let scalar = function
        | Json.Obj _ | Json.List _ -> None
        | Json.Float f -> Some (Fmt.str "%.3f" f)
        | v -> Some (Json.to_string v)
      in
      let flat kvs =
        String.concat " "
          (List.filter_map
             (fun (k, v) -> Option.map (fun s -> k ^ "=" ^ s) (scalar v))
             kvs)
      in
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Obj kvs
            when List.exists
                   (fun (_, v) -> match v with Json.Obj _ -> true | _ -> false)
                   kvs ->
              Fmt.pr "%s:@." k;
              List.iter
                (fun (k2, v2) ->
                  match v2 with
                  | Json.Obj kvs2 -> Fmt.pr "  %-14s %s@." k2 (flat kvs2)
                  | v2 -> Fmt.pr "  %-14s %s@." k2 (Json.to_string v2))
                kvs
          | Json.Obj kvs -> Fmt.pr "%s: %s@." k (flat kvs)
          | v -> Fmt.pr "%s: %s@." k (Json.to_string v))
        fields
  | Ok _ -> print_endline payload

let client_cmd =
  let run action files expr socket port host prelude global backend profile
      timeout_ms window seed count size mutants corpus_dir doc_version
      offset at del insert pretty =
    handle_code (fun () ->
        let address = address_of ~socket ~port ~host in
        let backend = C.Backend.of_string_exn backend in
        let profile = Option.map Profile.load profile in
        let kind_of = function
          | "run" -> Protocol.Run
          | "check" -> Protocol.Check
          | "translate" -> Protocol.Translate
          | a -> failwith ("unknown client action: " ^ a)
        in
        match action with
        | "stats" | "shutdown" ->
            let c = Client.connect address in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                let r =
                  if action = "stats" then Client.stats c
                  else Client.shutdown c
                in
                if action = "stats" && pretty then
                  print_stats_pretty r.Protocol.r_payload
                else print_endline r.Protocol.r_payload;
                exit_of_status r.Protocol.r_status)
        | "open" | "edit" | "close" | "diag" | "hover" | "def" | "complete"
          ->
            let file =
              match files with
              | [ f ] -> f
              | _ -> failwith (action ^ ": give exactly one FILE")
            in
            let c = Client.connect address in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                let r =
                  match action with
                  | "open" ->
                      let name, source = read_input file in
                      Client.doc_open c ~version:doc_version ~prelude
                        ~global_models:global ~backend ~name source
                  | "edit" -> (
                      match at with
                      | Some off ->
                          Client.doc_change c ~version:doc_version
                            ~name:file
                            (`Edits [ (off, del, insert) ])
                      | None ->
                          let name, source = read_input file in
                          Client.doc_change c ~version:doc_version ~name
                            (`Text source))
                  | "close" -> Client.doc_close c ~name:file
                  | "diag" -> Client.doc_diagnostics c ~name:file
                  | "hover" -> Client.hover c ~name:file ~offset
                  | "def" -> Client.definition c ~name:file ~offset
                  | _ -> Client.completion c ~name:file ~offset
                in
                print_endline r.Protocol.r_payload;
                exit_of_status r.Protocol.r_status)
        | "probe" ->
            run_probe address;
            0
        | "fuzz-worker" ->
            (* One round of a distributed guided soak: fuzz locally
               against the corpus dir, then merge coverage and corpus
               with the daemon and adopt whatever the fleet has that
               this worker lacks. *)
            let dir =
              match corpus_dir with
              | Some d -> d
              | None -> failwith "fuzz-worker: --corpus-dir is required"
            in
            let cfg =
              { C.Fuzz.seed; count; size; mutants; backend;
                profile = None; guided = true; corpus_dir = Some dir }
            in
            let report = C.Fuzz.run cfg in
            let have = List.map fst (C.Fuzz.corpus_load ~dir) in
            let c = Client.connect address in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                match
                  Client.fuzz_batch c ~coverage:report.C.Fuzz.r_coverage
                    ~corpus_entries:report.C.Fuzz.r_corpus_entries ~have
                with
                | None ->
                    failwith
                      "fuzz-worker: daemon rejected the fuzz_batch \
                       (pre-v4 server?)"
                | Some sync ->
                    List.iter
                      (fun (d, s) ->
                        C.Fuzz.corpus_write ~dir ~digest:d s)
                      sync.Client.fs_corpus;
                    Fmt.pr
                      "fuzz-worker: %d decision points local, %d fleet; \
                       offered %d corpus entries, adopted %d (fleet \
                       corpus %d over %d batches)@."
                      (Fg_util.Coverage.distinct report.C.Fuzz.r_coverage)
                      (Fg_util.Coverage.distinct sync.Client.fs_coverage)
                      (List.length report.C.Fuzz.r_corpus_entries)
                      (List.length sync.Client.fs_corpus)
                      sync.Client.fs_corpus_size sync.Client.fs_batches;
                    if report.C.Fuzz.r_failures = [] then 0 else 1)
        | "batch" ->
            let files = expand_paths files in
            if files = [] then failwith "batch: no .fg files to run";
            let reqs =
              List.mapi
                (fun i f ->
                  let name, source = read_input f in
                  Protocol.request ~id:(i + 1) ~file:name ~source ~prelude
                    ~global_models:global ~backend ?timeout_ms ?profile
                    Protocol.Run)
                files
            in
            let c = Client.connect address in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                let resps = Client.batch ~window c reqs in
                let worst = ref 0 in
                List.iter
                  (fun (r : Protocol.response) ->
                    print_endline r.Protocol.r_payload;
                    worst := max !worst (exit_of_status r.Protocol.r_status))
                  resps;
                !worst)
        | action ->
            let kind = kind_of action in
            let name, source =
              match (expr, files) with
              | Some s, _ -> ("<expr>", s)
              | None, [ f ] -> read_input f
              | None, [] -> read_input "-"
              | None, _ -> failwith (action ^ ": give exactly one FILE")
            in
            let c = Client.connect address in
            Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                let r =
                  Client.request c
                    (Protocol.request ~id:1 ~file:name ~source ~prelude
                       ~global_models:global ~backend ?timeout_ms ?profile
                       kind)
                in
                print_endline r.Protocol.r_payload;
                exit_of_status r.Protocol.r_status))
  in
  let action =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ACTION"
             ~doc:"One of $(b,run), $(b,check), $(b,translate), \
                   $(b,batch), $(b,stats), $(b,shutdown), $(b,probe), \
                   $(b,fuzz-worker), or the workspace actions \
                   $(b,open), $(b,edit), $(b,close), $(b,diag), \
                   $(b,hover), $(b,def), $(b,complete) (FILE doubles \
                   as the document name).")
  in
  let files =
    Arg.(value & pos_right 0 string []
         & info [] ~docv:"FILE"
             ~doc:"Program files ('-' for stdin); $(b,batch) also \
                   accepts directories, expanded to their .fg files.")
  in
  let timeout_ms =
    Arg.(value & opt (some int) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline override sent to the server.")
  in
  let window =
    Arg.(value & opt int Client.default_window
         & info [ "window" ] ~docv:"N"
             ~doc:"Batch pipelining window (requests in flight at once).")
  in
  let w_seed =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"$(b,fuzz-worker): master seed of the local run.")
  in
  let w_count =
    Arg.(value & opt int 100
         & info [ "count" ] ~docv:"N"
             ~doc:"$(b,fuzz-worker): programs per round.")
  in
  let w_size =
    Arg.(value & opt int 30
         & info [ "size" ] ~docv:"N"
             ~doc:"$(b,fuzz-worker): size budget per program.")
  in
  let w_mutants =
    Arg.(value & opt int 0
         & info [ "mutants" ] ~docv:"N"
             ~doc:"$(b,fuzz-worker): recovery-oracle mutants per program.")
  in
  let w_corpus =
    Arg.(value & opt (some string) None
         & info [ "corpus-dir" ] ~docv:"DIR"
             ~doc:"$(b,fuzz-worker): this worker's on-disk corpus, \
                   synced with the fleet through the daemon.")
  in
  let doc_version =
    Arg.(value & opt int 1
         & info [ "doc-version" ] ~docv:"N"
             ~doc:"$(b,open)/$(b,edit): the document version (edits \
                   must carry a strictly increasing version).")
  in
  let offset =
    Arg.(value & opt int 0
         & info [ "offset" ] ~docv:"N"
             ~doc:"$(b,hover)/$(b,def)/$(b,complete): byte offset in \
                   the document.")
  in
  let at =
    Arg.(value & opt (some int) None
         & info [ "at" ] ~docv:"N"
             ~doc:"$(b,edit): splice position (byte offset).  Without \
                   $(b,--at), the file's current contents are sent as \
                   the full new text.")
  in
  let del =
    Arg.(value & opt int 0
         & info [ "del" ] ~docv:"N"
             ~doc:"$(b,edit): bytes to delete at $(b,--at).")
  in
  let insert =
    Arg.(value & opt string ""
         & info [ "insert" ] ~docv:"TEXT"
             ~doc:"$(b,edit): text to insert at $(b,--at).")
  in
  let pretty =
    Arg.(value & flag
         & info [ "pretty" ]
             ~doc:"$(b,stats): render the payload as human-readable \
                   sections instead of raw JSON.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running $(b,fgc serve) daemon: single requests, \
          streamed batches over one connection, live stats, graceful \
          shutdown, a protocol-violation probe, and a $(b,fuzz-worker) \
          round that merges guided-fuzzing coverage and corpus with the \
          fleet.  Payloads printed for $(b,run) are byte-identical to \
          one-shot $(b,fgc run --format=json) output")
    Term.(const run $ action $ files $ expr_arg $ socket_arg $ port_arg
          $ host_arg $ prelude_flag $ global_flag $ backend_arg
          $ profile_arg $ timeout_ms $ window $ w_seed $ w_count $ w_size
          $ w_mutants $ w_corpus $ doc_version $ offset $ at $ del $ insert
          $ pretty)

(* ---------------------------------------------------------------- *)
(* profile: inspect and combine recorded workload profiles            *)

let profile_cmd =
  let run action files out =
    handle_code (fun () ->
        match action with
        | "merge" ->
            (* Fleet merge: counts sum pointwise, capacity by max; the
               output is canonical, so merging in any order produces
               the same bytes. *)
            let merged =
              List.fold_left
                (fun acc f -> Profile.merge acc (Profile.load f))
                Profile.empty files
            in
            (match out with
            | Some path -> Profile.save path merged
            | None -> print_string (Profile.to_string merged));
            0
        | "show" ->
            (* Round-trip through the codec: a canonical re-rendering
               of each file, and an FG1003 diagnostic for bad ones. *)
            List.iter
              (fun f -> print_string (Profile.to_string (Profile.load f)))
              files;
            0
        | a -> failwith ("unknown profile action: " ^ a))
  in
  let action =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ACTION"
             ~doc:"$(b,merge) (sum many profiles into one) or $(b,show) \
                   (re-render canonically).")
  in
  let files =
    Arg.(value & pos_right 0 string []
         & info [] ~docv:"FILE" ~doc:"Profile files (canonical JSON).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the result here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Work with recorded workload profiles: merge per-worker or \
          per-fleet profiles into one (counts sum, byte-stable output) \
          or re-render one canonically")
    Term.(const run $ action $ files $ out)

(* ---------------------------------------------------------------- *)
(* repl                                                              *)

let repl_cmd =
  let run () = handle (fun () -> Repl.main ()) in
  Cmd.v
    (Cmd.info "repl"
       ~doc:
         "Interactive session: declarations accumulate, expressions run \
          through the full pipeline")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- *)

let () =
  Fg_prelude_image.Prelude_image.install ();
  let doc =
    "System FG: concepts, models, where clauses, associated types and \
     same-type constraints (PLDI 2005 reproduction)"
  in
  let info = Cmd.info "fgc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd; translate_cmd; run_cmd; verify_cmd; elaborate_cmd;
            batch_cmd; corpus_cmd; fuzz_cmd; eq_cmd; serve_cmd; client_cmd;
            profile_cmd; repl_cmd;
          ]))
