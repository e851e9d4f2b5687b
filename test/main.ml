(* Test runner: every suite in one alcotest binary, so `dune runtest`
   runs the whole reproduction's test battery. *)

let () =
  Alcotest.run "fg"
    [
      ("util", Test_util.suite);
      ("json", Test_json.suite);
      ("telemetry", Test_telemetry.suite);
      ("coverage", Test_coverage.suite);
      ("syntax", Test_syntax.suite);
      ("unionfind", Test_unionfind.suite);
      ("congruence", Test_congruence.suite);
      ("systemf", Test_systemf.suite);
      ("systemf-smallstep", Test_systemf_step.suite);
      ("fg-parser", Test_fg_parser.suite);
      ("fg-pretty", Test_fg_pretty.suite);
      ("fg-equality", Test_equality.suite);
      ("fg-env", Test_env.suite);
      ("fg-types", Test_types.suite);
      ("fg-check", Test_fg_check.suite);
      ("fg-translate", Test_fg_translate.suite);
      ("fg-interp", Test_fg_interp.suite);
      ("corpus", Test_corpus.suite);
      ("theorems", Test_theorems.suite);
      ("prelude", Test_prelude.suite);
      ("resolution", Test_resolution.suite);
      ("parameterized-models", Test_parameterized.suite);
      ("implicit-instantiation", Test_implicit.suite);
      ("member-defaults", Test_defaults.suite);
      ("named-models", Test_named_models.suite);
      ("nested-requirements", Test_requires.suite);
      ("graph-library", Test_graph.suite);
      ("matrix-library", Test_matrix.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("recovery", Test_recovery.suite);
      ("session", Test_session.suite);
      ("prelude-image", Test_image.suite);
      ("diskcache", Test_diskcache.suite);
      ("cli", Test_cli.suite);
      ("wire-protocol", Test_protocol.suite);
      ("server", Test_server.suite);
      ("program-files", Test_programs.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("fuzz", Test_fuzz.suite);
      ("scaling-families", Test_genprog.suite);
      ("backend", Test_backend.suite);
      ("loc", Test_loc.suite);
      ("workspace", Test_workspace.suite);
    ]
