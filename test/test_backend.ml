(* The specializing backends against the dictionary baseline.

   The load-bearing property is the oracle the session enforces for
   every non-dict run: the specialized program re-typechecks in System
   F at a type alpha-equal to the translation's, and evaluates to the
   same flat value as the direct interpreter.  These tests drive every
   corpus program and a seeded fuzz batch through all three backends
   and require byte-identical values — plus the Config surface that
   carries the backend through sessions, servers and the CLI. *)

open Fg_core
module F = Fg_systemf

let all_backends = [ Backend.Dict; Backend.Stencil; Backend.Hybrid ]

(* ------------------------------------------------------------------ *)
(* Backend naming *)

let test_backend_names () =
  Alcotest.(check (list string)) "the three backends, in order"
    [ "dict"; "stencil"; "hybrid" ]
    (List.map Backend.to_string Backend.all);
  List.iter
    (fun b ->
      Alcotest.(check bool) "of_string inverts to_string" true
        (Backend.of_string (Backend.to_string b) = Some b))
    Backend.all;
  Alcotest.(check bool) "unknown name" true (Backend.of_string "jit" = None);
  match Backend.of_string_exn "jit" with
  | exception Fg_util.Diag.Error d ->
      Alcotest.(check string) "stable code" "FG1001" d.Fg_util.Diag.code;
      Alcotest.(check string) "config phase" "configuration error"
        (Fg_util.Diag.phase_name d.Fg_util.Diag.phase)
  | _ -> Alcotest.fail "of_string_exn must raise the FG1001 diagnostic"

(* ------------------------------------------------------------------ *)
(* The Config surface *)

let test_config_api () =
  let module Cfg = Session.Config in
  Alcotest.(check bool) "default backend is dict" true
    (Cfg.default.Cfg.backend = Backend.Dict);
  Alcotest.(check bool) "default prelude is none" true
    (Cfg.default.Cfg.prelude = None);
  let cfg =
    Cfg.of_flags ~prelude:true ~global_models:true ~backend:Backend.Hybrid ()
  in
  Alcotest.(check bool) "backend narrows" true
    (cfg.Cfg.backend = Backend.Hybrid);
  Alcotest.(check bool) "prelude set" true
    (cfg.Cfg.prelude = Some Prelude.full);
  Alcotest.(check bool) "global resolution" true
    (cfg.Cfg.resolution = Resolution.Global);
  (* Structural equality of identically-built configs: servers and the
     workspace key their warm-session tables on Config.t, so this is
     what makes two equivalent requests share one session. *)
  let again =
    { (Cfg.with_standard_prelude Cfg.default) with
      Cfg.backend = Backend.Hybrid; resolution = Resolution.Global }
  in
  Alcotest.(check bool) "configs compare structurally" true (cfg = again);
  let s = Session.of_config cfg in
  Alcotest.(check bool) "session keeps its config" true
    (Session.config s = cfg);
  Alcotest.(check bool) "backend accessor" true
    (Session.backend s = Backend.Hybrid)

(* ------------------------------------------------------------------ *)
(* Corpus differential: every program, all three backends *)

let session_for backend =
  Session.of_config { Session.Config.default with backend }

let test_corpus_differential () =
  let sessions = List.map (fun b -> (b, session_for b)) all_backends in
  List.iter
    (fun (e : Corpus.entry) ->
      match e.Corpus.expected with
      | Corpus.Fails _ -> ()
      | Corpus.Value expected ->
          let outcomes =
            List.map
              (fun (b, s) -> (b, Session.run ~file:e.Corpus.name s e.Corpus.source))
              sessions
          in
          List.iter
            (fun (b, (o : Session.outcome)) ->
              Alcotest.(check string)
                (Printf.sprintf "%s under %s" e.Corpus.name
                   (Backend.to_string b))
                (Interp.flat_to_string expected)
                (Interp.flat_to_string o.Session.value);
              match (b, o.Session.spec) with
              | Backend.Dict, Some _ ->
                  Alcotest.fail "dict outcome must not carry spec"
              | Backend.Dict, None -> ()
              | _, None ->
                  Alcotest.failf "%s: specializing outcome lacks spec"
                    e.Corpus.name
              | _, Some sp ->
                  (* the session's oracle already required the
                     specialized program to typecheck alpha-equal and
                     evaluate byte-identically; assert the cost claim
                     on top: specialization never adds beta steps *)
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: spec steps %d <= translated %d"
                       e.Corpus.name sp.Session.spec_steps
                       o.Session.translated_steps)
                    true
                    (sp.Session.spec_steps <= o.Session.translated_steps))
            outcomes)
    Corpus.all

(* An explicit end-to-end re-check of the oracle's first half, outside
   the session: specialize the translation by hand and typecheck it. *)
let test_spec_typechecks_explicitly () =
  let s = session_for Backend.Dict in
  List.iter
    (fun (e : Corpus.entry) ->
      match e.Corpus.expected with
      | Corpus.Fails _ -> ()
      | Corpus.Value _ ->
          let f = Session.translate ~file:e.Corpus.name s e.Corpus.source in
          let f_ty = F.Typecheck.typecheck f in
          List.iter
            (fun mode ->
              let sp, _ = F.Specialize.specialize ~mode f in
              let sp_ty = F.Typecheck.typecheck sp in
              Alcotest.(check bool)
                (Printf.sprintf "%s: specialized type alpha-equal"
                   e.Corpus.name)
                true
                (F.Ast.alpha_equal sp_ty f_ty))
            [ F.Specialize.Stencil; F.Specialize.Hybrid ])
    Corpus.all

(* ------------------------------------------------------------------ *)
(* gcshape sharing *)

let sharing_src =
  "concept Id<t> { f : fn(t) -> t; } in\n\
   let ap = tfun t where Id<t> => fun (x : t) => Id<t>.f(x) in\n\
   model Id<int> { f = fun (x : int) => x + 1; } in\n\
   model Id<bool> { f = fun (x : bool) => x; } in\n\
   if ap[bool](true) then ap[int](1) else 0"

let spec_of b =
  match (Session.run (session_for b) sharing_src).Session.spec with
  | Some sp -> sp
  | None -> Alcotest.fail "specializing run lacks spec"

let test_hybrid_shares_shapes () =
  let st = (spec_of Backend.Stencil).Session.spec_stats in
  let hy = (spec_of Backend.Hybrid).Session.spec_stats in
  (* full stenciling clones per instantiation; the hybrid keeps one
     stencil per dictionary-layout shape and lets the same-shape call
     keep dictionary passing *)
  Alcotest.(check int) "stencil clones both" 2
    st.F.Specialize.st_stencils;
  Alcotest.(check int) "hybrid keeps one" 1 hy.F.Specialize.st_stencils;
  Alcotest.(check bool) "hybrid shares the other" true
    (hy.F.Specialize.st_shared >= 1)

(* ------------------------------------------------------------------ *)
(* Fuzz differential: a seeded batch under each specializing backend *)

let test_fuzz_differential () =
  List.iter
    (fun b ->
      let cfg =
        { Fuzz.default_config with
          Fuzz.seed = 2026; count = 60; mutants = 0; backend = b }
      in
      let r = Fuzz.run ~domains:2 cfg in
      Alcotest.(check int)
        (Printf.sprintf "no failures under %s" (Backend.to_string b))
        0
        (List.length r.Fuzz.r_failures))
    [ Backend.Stencil; Backend.Hybrid ]

let suite =
  [
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "config API" `Quick test_config_api;
    Alcotest.test_case "corpus differential (3 backends)" `Quick
      test_corpus_differential;
    Alcotest.test_case "specialized corpus typechecks" `Quick
      test_spec_typechecks_explicitly;
    Alcotest.test_case "hybrid shares same-shape stencils" `Quick
      test_hybrid_shares_shapes;
    Alcotest.test_case "fuzz differential (stencil, hybrid)" `Slow
      test_fuzz_differential;
  ]
