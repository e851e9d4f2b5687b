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

(* Read to end of file rather than to a length asked for up front: a
   pipe, [/dev/stdin] or a process substitution has no length. *)
let read_input file =
  let name = if file = "-" then "<stdin>" else file in
  let read ic =
    match In_channel.input_all ic with
    | text -> (name, text)
    | exception Sys_error msg ->
        Diag.error Diag.Parser "cannot read %s: %s" name msg
  in
  match file with
  | "-" -> read stdin
  | path -> (
      match open_in_bin path with
      | exception Sys_error msg -> Diag.error Diag.Parser "cannot read %s" msg
      | ic -> Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read ic))

(* ---------------------------------------------------------------- *)
(* JSON views — shared with the server so `fgc serve` payloads are
   byte-identical to one-shot output (see lib/fg/jsonview.ml). *)

let json_of_diags = C.Jsonview.json_of_diags
let json_of_outcome = C.Jsonview.json_of_outcome
let json_of_failure = C.Jsonview.json_of_failure
let print_json j = print_endline (Json.to_string j)

(* ---------------------------------------------------------------- *)
(* Common arguments                                                  *)

(* A usage mistake cmdliner cannot see, such as the wrong number of
   files for a client action: it passes through [handle_code] and is
   reported as cmdliner's own usage error (exit 124). *)
exception Usage of string

let usage fmt = Fmt.kstr (fun m -> raise (Usage m)) fmt

(* Run a command body that reports its own exit code; on a diagnostic
   print it (as JSON when asked) and exit non-zero.  Any other exception
   (a stack overflow on a deeply nested program, say) is reported the
   same way, as the FG0901 internal error a batch job gets for it.  With
   [--stats], the telemetry accumulated by the command — timers and
   cache counters included — goes to stderr either way. *)
let handle_code ?(json = false) ?(stats = false) f =
  let before = Telemetry.snapshot () in
  let finish code =
    if stats then
      Fmt.epr "%a@." Telemetry.pp
        (Telemetry.diff (Telemetry.snapshot ()) before);
    code
  in
  let fail d =
    if json then
      print_json (Json.Obj [ ("ok", Json.Bool false);
                             ("diagnostics", json_of_diags [ d ]) ])
    else Fmt.epr "%a@." Diag.pp d;
    finish 1
  in
  match f () with
  | code -> finish code
  | exception Diag.Error d -> fail d
  | exception (Usage _ as exn) -> raise exn
  | exception exn -> fail (C.Session.internal_error exn)

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
             model-resolution hits, congruence rebuilds) on stderr." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let cache_dir_arg =
  let doc =
    "Persist checked compilation units under $(docv) and reuse them \
     across invocations: a warm run replays every unchanged declaration \
     from disk instead of re-checking it, with byte-identical output.  \
     Entries only decode in the compiler build that wrote them; \
     anything else reads as a miss.  Separate processes may share \
     $(docv)."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let format_arg =
  let doc = "Output format: $(b,text) (default) or $(b,json)." in
  Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
       & info [ "format" ] ~docv:"FMT" ~doc)

(* Integer flags with a floor: a value below it is a usage error, not
   something to clamp or run. *)
let int_from least what =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= least -> Ok n
        | _ ->
            Error
              (`Msg (Printf.sprintf "invalid value '%s', expected %s" s what))),
      Fmt.int )

let count = int_from 0 "a non-negative integer"
let positive = int_from 1 "a positive integer"

(* The session every subcommand drives: prelude cached at creation when
   requested, so per-program work excludes it.  With [cache_dir] (the
   one-shot commands' --cache-dir) its unit cache has the disk store
   behind it, attached before the prelude walk so that a checked
   prelude's units persist too. *)
let make_session ?cache_dir ~global ~prelude () =
  let cfg = C.Session.Config.of_flags ~prelude ~global_models:global () in
  let cache =
    Option.map
      (fun dir ->
        let cache = C.Unit.create_cache () in
        C.Unit.set_stores cache
          [ C.Unit.disk_store (C.Diskcache.open_store dir) ];
        cache)
      cache_dir
  in
  C.Session.of_config ?cache cfg

let get_source file expr =
  match expr with Some s -> ("<expr>", s) | None -> read_input file

let file_pos_arg =
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE"
         ~doc:"Input program file ('-' for stdin).")

(* ---------------------------------------------------------------- *)
(* check                                                             *)

let check_cmd =
  let run file expr global prelude cache_dir stats =
    handle ~stats (fun () ->
        let name, src = get_source file expr in
        let s = make_session ?cache_dir ~global ~prelude () in
        Fmt.pr "%a@." C.Pretty.pp_ty (C.Session.typecheck ~file:name s src))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Type check an FG program and print its type")
    Term.(const run $ file_pos_arg $ expr_arg $ global_flag
          $ prelude_flag $ cache_dir_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* translate                                                         *)

let translate_cmd =
  let run file expr global prelude cache_dir show_type stats =
    handle ~stats (fun () ->
        let name, src = get_source file expr in
        let s = make_session ?cache_dir ~global ~prelude () in
        let f = C.Session.translate ~file:name s src in
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
       ~doc:"Translate an FG program to System F (dictionary passing)")
    Term.(
      const run $ file_pos_arg $ expr_arg $ global_flag $ prelude_flag
      $ cache_dir_arg $ show_type $ stats_flag)

(* ---------------------------------------------------------------- *)
(* run                                                               *)

let run_cmd =
  let run file expr global prelude cache_dir verbose format stats =
    handle_code ~json:(format = `Json) ~stats (fun () ->
        let name, src = get_source file expr in
        let s = make_session ?cache_dir ~global ~prelude () in
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
                  Fmt.pr "theorem     : %s@."
                    (if out.theorem_holds then "holds" else "VIOLATED")
                end
                else Fmt.pr "%a@." C.Interp.pp_flat out.value));
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
      $ cache_dir_arg $ verbose $ format_arg $ stats_flag)

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
  Arg.(value & opt (some positive) None
       & info [ "j"; "domains" ] ~docv:"N" ~doc)

let batch_cmd =
  let run files global prelude domains format stats =
    handle ~json:(format = `Json) ~stats (fun () ->
        let jobs = List.map read_input files in
        let s = make_session ~global ~prelude () in
        (* Each job's result is projected to what is printed on the
           domain that ran it, so the batch holds no job's AST or
           translation past its end. *)
        let failed, total =
          match format with
          | `Json ->
              let rows =
                C.Session.map_batch ?domains s jobs (fun name -> function
                  | Ok o -> (true, json_of_outcome ~file:name o)
                  | Error d -> (false, json_of_failure ~file:name d))
              in
              print_json (Json.List (List.map snd rows));
              (List.length (List.filter (fun (ok, _) -> not ok) rows),
               List.length rows)
          | `Text ->
              let rows =
                C.Session.map_batch ?domains s jobs (fun name r ->
                    ( name,
                      Result.map (fun (o : C.Session.outcome) -> o.value) r ))
              in
              List.iter
                (fun (name, r) ->
                  match r with
                  | Ok v -> Fmt.pr "%-40s %a@." name C.Interp.pp_flat v
                  | Error d -> Fmt.pr "%-40s ERROR %a@." name Diag.pp d)
                rows;
              let failed =
                List.length (List.filter (fun (_, r) -> Result.is_error r) rows)
              in
              Fmt.pr "%d/%d ok@." (List.length rows - failed) (List.length rows);
              (failed, List.length rows)
        in
        if failed > 0 then
          Diag.error Diag.Eval "%d of %d programs failed" failed total)
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
    Term.(const run $ files $ global_flag $ prelude_flag $ domains_arg
          $ format_arg $ stats_flag)

(* ---------------------------------------------------------------- *)
(* corpus                                                            *)

let corpus_cmd =
  let run entry all domains format stats =
    handle ~json:(format = `Json) ~stats (fun () ->
        let session () = make_session ~global:false ~prelude:false () in
        match (entry, all) with
        | None, false ->
            List.iter
              (fun (e : C.Corpus.entry) ->
                Fmt.pr "%-30s %-18s %s@." e.name e.paper e.description)
              C.Corpus.all
        | None, true ->
            (* Run every entry, in parallel; an entry passes when its
               outcome matches its stated expectation.  Each job keeps
               only its verdict and what is printed for it. *)
            let s = session () in
            let jobs =
              List.map (fun (e : C.Corpus.entry) -> (e.name, e.source))
                C.Corpus.all
            in
            let as_expected name r =
              match ((C.Corpus.find name).expected, r) with
              | C.Corpus.Value expect, Ok (o : C.Session.outcome) ->
                  C.Interp.flat_equal o.value expect
              | C.Corpus.Fails phase, Error (d : Diag.diagnostic) ->
                  d.phase = phase
              | C.Corpus.Value _, Error _ | C.Corpus.Fails _, Ok _ -> false
            in
            let failed =
              match format with
              | `Json ->
                  let rows =
                    C.Session.map_batch ?domains s jobs (fun name r ->
                        let ok = as_expected name r in
                        let j =
                          match r with
                          | Ok o -> json_of_outcome ~file:name o
                          | Error d -> json_of_failure ~file:name d
                        in
                        ( ok,
                          match j with
                          | Json.Obj fields ->
                              Json.Obj (("expected_ok", Json.Bool ok) :: fields)
                          | j -> j ))
                  in
                  print_json (Json.List (List.map snd rows));
                  List.length (List.filter (fun (ok, _) -> not ok) rows)
              | `Text ->
                  let rows =
                    C.Session.map_batch ?domains s jobs (fun name r ->
                        ( name,
                          as_expected name r,
                          match r with
                          | Ok (o : C.Session.outcome) ->
                              C.Interp.flat_to_string o.value
                          | Error (d : Diag.diagnostic) ->
                              "rejected: " ^ Diag.phase_name d.phase ))
                  in
                  List.iter
                    (fun (name, ok, show) ->
                      Fmt.pr "%-30s %s %s@." name
                        (if ok then "ok  " else "FAIL")
                        show)
                    rows;
                  let failed =
                    List.length (List.filter (fun (_, ok, _) -> not ok) rows)
                  in
                  Fmt.pr "%d/%d as expected@." (List.length rows - failed)
                    (List.length rows);
                  failed
            in
            if failed > 0 then
              Diag.error Diag.Eval "%d corpus entries off expectation" failed
        | Some (e : C.Corpus.entry), _ -> (
            Fmt.pr "// %s (%s)@.%s@.@." e.description e.paper e.source;
            (* Off its expectation, an entry ends in a diagnostic: the
               program's own when it fails, ours when it runs. *)
            let r = C.Session.run_result ~file:e.name (session ()) e.source in
            match (e.expected, r) with
            | C.Corpus.Value expect, Ok (o : C.Session.outcome)
              when C.Interp.flat_equal o.value expect ->
                Fmt.pr "value: %a (expected %a)@." C.Interp.pp_flat o.value
                  C.Interp.pp_flat expect
            | C.Corpus.Fails phase, Error (d : Diag.diagnostic)
              when d.phase = phase ->
                Fmt.pr "rejected as expected (%s): %s@."
                  (Diag.phase_name phase) (Diag.to_string d)
            | _, Error d -> raise (Diag.Error d)
            | _, Ok o ->
                Diag.error Diag.Eval
                  "corpus entry %s is off its expectation: it ran to %s"
                  e.name (C.Interp.flat_to_string o.value)))
  in
  let entry_arg =
    (* An enum of the entry names, built on first use: indexing forty
       names costs about 0.08 ms, which every fgc process would pay at
       start-up. *)
    let enum =
      lazy
        (Arg.conv_parser
           (Arg.enum
              (List.map (fun (e : C.Corpus.entry) -> (e.name, e))
                 C.Corpus.all)))
    in
    let entry =
      Arg.conv
        ( (fun name -> Lazy.force enum name),
          fun ppf (e : C.Corpus.entry) -> Fmt.string ppf e.name )
    in
    Arg.(value & pos 0 (some entry) None
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
    Term.(const run $ entry_arg $ all_flag $ domains_arg $ format_arg
          $ stats_flag)

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
                  Diag.error Diag.Parser
                    "assumptions must be same-type constraints (a == b)")
            (C.Equality.empty ()) assumptions
        in
        match C.Parser.constr_of_string query with
        | C.Ast.CSame (a, b) ->
            Fmt.pr "%b@." (C.Equality.equal eq a b);
            Fmt.pr "repr lhs: %a@." C.Pretty.pp_ty (C.Equality.repr eq a);
            Fmt.pr "repr rhs: %a@." C.Pretty.pp_ty (C.Equality.repr eq b)
        | C.Ast.CModel _ ->
            Diag.error Diag.Parser
              "query must be a same-type constraint (a == b)")
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
  let run seed count size mutants format save_dir stats guided corpus_dir =
    handle_code ~json:(format = `Json) ~stats (fun () ->
        let cfg =
          { C.Fuzz.seed; count; size; mutants;
            guided = guided || corpus_dir <> None; corpus_dir }
        in
        let report = C.Fuzz.run cfg in
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
    Arg.(value & opt count 100
         & info [ "count" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let size_arg =
    Arg.(value & opt count 30
         & info [ "size" ] ~docv:"N"
             ~doc:"Size budget per generated program (AST-node scale).")
  in
  let mutants_arg =
    Arg.(value & opt count 2
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
          $ format_arg $ save_arg $ stats_flag $ guided_flag $ corpus_arg)

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
      verbose =
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
    Arg.(value & opt (some positive) None
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains, each owning warm sessions (default: \
                   the runtime's recommendation).")
  in
  let max_queue =
    Arg.(value & opt positive 128
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Bounded request-queue capacity; a full queue answers \
                   $(b,overload) instead of buffering.")
  in
  let timeout_ms =
    Arg.(value & opt (some count) None
         & info [ "request-timeout-ms" ] ~docv:"MS"
             ~doc:"Default per-request deadline (queue wait + service); \
                   expired requests get a structured $(b,timeout) \
                   response.  Requests may override with their own \
                   $(b,timeout_ms).")
  in
  let max_frame =
    Arg.(value & opt positive Protocol.default_max_frame
         & info [ "max-frame-bytes" ] ~docv:"N"
             ~doc:"Largest accepted wire frame; bigger length prefixes \
                   are rejected without allocating.")
  in
  let fuel =
    Arg.(value & opt count 10_000_000
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
          stats/shutdown and the workspace kinds with deadlines, \
          backpressure and graceful drain (see docs/SERVER.md).  A \
          $(b,--socket) path is replaced only when it holds a stale \
          socket; a live daemon's socket, any other file, or an \
          address that cannot be bound is the FG1004 configuration \
          error")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ workers $ max_queue
          $ timeout_ms $ max_frame $ fuel $ verbose)

(* ---------------------------------------------------------------- *)
(* client                                                            *)

let exit_of_status = function
  | Protocol.Ok_ -> 0
  | Protocol.Failed -> 1
  | Protocol.Protocol_error -> 3
  | Protocol.Timeout -> 4
  | Protocol.Overload -> 5
  | Protocol.Shutting_down -> 6

(* Expand directories into their .fg files (sorted), pass anything else
   through: a path that cannot be read fails when it is read. *)
let expand_paths paths =
  List.concat_map
    (fun p ->
      if try Sys.is_directory p with Sys_error _ -> false then
        Sys.readdir p |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".fg")
        |> List.sort String.compare
        |> List.map (Filename.concat p)
      else [ p ])
    paths

let contains needle s = Fg_util.Strutil.contains ~needle s

exception Probe_failed of string

(* The probe: deliberately violate the protocol three ways and check
   the daemon answers each violation correctly and stays up. *)
let run_probe address =
  let fail fmt = Fmt.kstr (fun m -> raise (Probe_failed m)) fmt in
  let expect_status name (r : Protocol.response) status needle =
    if r.Protocol.r_status <> status then
      fail "%s: expected status %s, got %s" name
        (Protocol.status_name status)
        (Protocol.status_name r.Protocol.r_status);
    if not (contains needle r.Protocol.r_payload) then
      fail "%s: payload lacks %s: %s" name needle r.Protocol.r_payload
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
  | _ -> fail "oversized-frame: expected the server to close");
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
  let run action files expr socket port host prelude global timeout_ms
      window doc_version offset at del insert pretty =
    match
      handle_code (fun () ->
          let address = address_of ~socket ~port ~host in
          try
            match action with
            | ("stats" | "shutdown" | "probe") when files <> [] ->
                usage "%s: takes no FILE" action
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
                  | _ -> usage "%s: give exactly one FILE" action
                in
                let c = Client.connect address in
                Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                    let r =
                      match action with
                      | "open" ->
                          let name, source = read_input file in
                          Client.doc_open c ~version:doc_version ~prelude
                            ~global_models:global ~name source
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
            | "probe" -> (
                match run_probe address with
                | () -> 0
                | exception Probe_failed msg ->
                    Fmt.epr "fgc client: probe: %s@." msg;
                    1)
            | "batch" ->
                let files = expand_paths files in
                if files = [] then usage "batch: no .fg files to run";
                let reqs =
                  List.mapi
                    (fun i f ->
                      let name, source = read_input f in
                      Protocol.request ~id:(i + 1) ~file:name ~source ~prelude
                        ~global_models:global ?timeout_ms Protocol.Run)
                    files
                in
                let c = Client.connect address in
                Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                    let resps = Client.batch ~window c reqs in
                    let worst = ref 0 in
                    List.iter
                      (fun (r : Protocol.response) ->
                        print_endline r.Protocol.r_payload;
                        worst :=
                          max !worst (exit_of_status r.Protocol.r_status))
                      resps;
                    !worst)
            | action ->
                (* run, check or translate: named after their wire kinds *)
                let kind = Option.get (Protocol.kind_of_name action) in
                let name, source =
                  match (expr, files) with
                  | Some s, [] -> ("<expr>", s)
                  | Some _, _ -> usage "%s: give -e or a FILE, not both" action
                  | None, [ f ] -> read_input f
                  | None, [] -> read_input "-"
                  | None, _ -> usage "%s: give at most one FILE" action
                in
                let c = Client.connect address in
                Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
                    let r =
                      Client.request c
                        (Protocol.request ~id:1 ~file:name ~source ~prelude
                           ~global_models:global ?timeout_ms kind)
                    in
                    print_endline r.Protocol.r_payload;
                    exit_of_status r.Protocol.r_status)
          with Client.Client_error msg ->
            (* no response to map: exits 1-6 mirror response statuses *)
            Fmt.epr "fgc client: %s@." msg;
            7)
    with
    | code -> `Ok code
    | exception Usage msg -> `Error (true, msg)
  in
  let action =
    let actions =
      [ "run"; "check"; "translate"; "batch"; "stats"; "shutdown"; "probe";
        "open"; "edit"; "close"; "diag"; "hover"; "def"; "complete" ]
      |> List.map (fun a -> (a, a))
    in
    Arg.(required & pos 0 (some (enum actions)) None
         & info [] ~docv:"ACTION"
             ~doc:("The action, " ^ Arg.doc_alts_enum actions
                   ^ "; the last seven are the workspace actions, where \
                      FILE doubles as the document name."))
  in
  let files =
    Arg.(value & pos_right 0 string []
         & info [] ~docv:"FILE"
             ~doc:"Program files ('-' for stdin); $(b,batch) also \
                   accepts directories, expanded to their .fg files.")
  in
  let timeout_ms =
    Arg.(value & opt (some count) None
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline override sent to the server.")
  in
  let window =
    Arg.(value & opt positive Client.default_window
         & info [ "window" ] ~docv:"N"
             ~doc:"Batch pipelining window (requests in flight at once).")
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
    Arg.(value & opt (some count) None
         & info [ "at" ] ~docv:"N"
             ~doc:"$(b,edit): splice position (byte offset).  Without \
                   $(b,--at), the file's current contents are sent as \
                   the full new text.")
  in
  let del =
    Arg.(value & opt count 0
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
          shutdown, a protocol-violation probe, and the workspace \
          actions.  Payloads printed for $(b,run) are byte-identical to \
          one-shot $(b,fgc run --format=json) output.  The exit code \
          follows the response status (see docs/SERVER.md); a client \
          that cannot reach the daemon or read its reply prints one \
          line on stderr and exits 7")
    Term.(ret (const run $ action $ files $ expr_arg $ socket_arg $ port_arg
               $ host_arg $ prelude_flag $ global_flag $ timeout_ms $ window
               $ doc_version $ offset $ at $ del $ insert $ pretty))

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
            repl_cmd;
          ]))
