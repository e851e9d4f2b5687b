(* End-to-end tests of the fgc command-line tool: each subcommand run
   as a subprocess against the real binary. *)

let fgc = "../bin/fgc.exe"

(* Read a temporary file and remove it. *)
let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let run_cmd args ~stdin_text =
  let out_file = Filename.temp_file "fgc_out" ".txt" in
  let in_file = Filename.temp_file "fgc_in" ".txt" in
  let oc = open_out in_file in
  output_string oc stdin_text;
  close_out oc;
  let cmd =
    Printf.sprintf "%s %s < %s > %s 2>&1" (Filename.quote fgc) args
      (Filename.quote in_file) (Filename.quote out_file)
  in
  let code = Sys.command cmd in
  let out = slurp out_file in
  Sys.remove in_file;
  (code, String.trim out)

let check_out args expected =
  let code, out = run_cmd args ~stdin_text:"" in
  Alcotest.(check int) (args ^ " exit code") 0 code;
  Alcotest.(check string) args expected out

let test_run () =
  check_out "run -e '1 + 2 * 3'" "7";
  check_out "run -p -e 'accumulate(cons[int](20, cons[int](22, nil[int])))'"
    "42"

let test_run_verbose () =
  let code, out = run_cmd "run -e '(1, true)' -v" ~stdin_text:"" in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ "type        : int * bool"; "value       : (1, true)"; "theorem     : holds" ]

let test_check () =
  check_out "check -e 'fun (x : int) => x'" "fn(int) -> int"

let test_translate () =
  let code, out =
    run_cmd
      "translate -e 'concept N<t> { m : t; } in model N<int> { m = 9; } in \
       N<int>.m' -t"
      ~stdin_text:""
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "dictionary" true
    (Astring_contains.contains ~needle:"tuple(9)" out);
  Alcotest.(check bool) "type comment" true
    (Astring_contains.contains ~needle:"// : int" out)

let test_verify () =
  let code, out = run_cmd "verify -e '41 + 1'" ~stdin_text:"" in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "holds" true
    (Astring_contains.contains ~needle:"theorem          : holds" out)

let test_elaborate () =
  let code, out =
    run_cmd "elaborate -p -e 'contains(cons[int](1, nil[int]), 1)'"
      ~stdin_text:""
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "explicit instantiation inserted" true
    (Astring_contains.contains ~needle:"contains[list int](" out)

let test_error_exit_code () =
  let code, out = run_cmd "run -e '1 + true'" ~stdin_text:"" in
  Alcotest.(check int) "nonzero exit" 1 code;
  Alcotest.(check bool) "message" true
    (Astring_contains.contains ~needle:"expected int but got bool" out)

let test_global_flag () =
  let overlapping =
    "'concept C<t> { v : t; } in let a = model C<int> { v = 1; } in C<int>.v \
     in let b = model C<int> { v = 2; } in C<int>.v in a + b'"
  in
  let code, _ = run_cmd ("run -e " ^ overlapping) ~stdin_text:"" in
  Alcotest.(check int) "lexical accepts" 0 code;
  let code2, out2 =
    run_cmd ("run --global-models -e " ^ overlapping) ~stdin_text:""
  in
  Alcotest.(check int) "global rejects" 1 code2;
  Alcotest.(check bool) "overlap diagnostic" true
    (Astring_contains.contains ~needle:"overlapping model" out2)

let test_corpus_listing () =
  let code, out = run_cmd "corpus" ~stdin_text:"" in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ "fig5_accumulate"; "fig6_overlap"; "merge_example"; "named_models" ]

let test_corpus_run () =
  let code, out = run_cmd "corpus fig6_overlap" ~stdin_text:"" in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "value" true
    (Astring_contains.contains ~needle:"value: (3, 2) (expected (3, 2))" out)

let test_eq () =
  let code, out =
    run_cmd "eq -a 'C<int>.elt == int' 'list C<int>.elt == list int'"
      ~stdin_text:""
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "true verdict" true
    (Astring_contains.contains ~needle:"true" out);
  Alcotest.(check bool) "repr" true
    (Astring_contains.contains ~needle:"repr lhs: list int" out)

let test_stdin_input () =
  let code, out = run_cmd "run" ~stdin_text:"let x = 6 in x * 7" in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check string) "stdin program" "42" out

let test_run_json () =
  let code, out =
    run_cmd "run --format=json -p -e 'power[int](2, 5)'" ~stdin_text:""
  in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ {|"ok": true|}; {|"type": "int"|}; {|"value": 10|};
      {|"theorem": true|}; {|"direct_steps"|} ]

let test_json_error () =
  let code, out = run_cmd "run --format=json -e '1 + true'" ~stdin_text:"" in
  Alcotest.(check int) "nonzero exit" 1 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ {|"ok": false|}; {|"phase": "type error"|}; {|"line": 1|};
      "expected int but got bool" ]

let test_multi_error () =
  (* one invocation reports every independent error, with codes *)
  let src =
    "'concept N<t> { m : t; } in let c = fun (x : nope) => x in let d = 1 + \
     true in N<int>.m'"
  in
  let code, out = run_cmd ("run -e " ^ src) ~stdin_text:"" in
  Alcotest.(check int) "nonzero exit" 1 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ "FG0207"; "FG0303"; "FG0402"; "unbound type variable 'nope'";
      "expected int but got bool"; "no model of N<int>" ];
  let code_j, out_j =
    run_cmd ("run --format=json -e " ^ src) ~stdin_text:""
  in
  Alcotest.(check int) "json nonzero exit" 1 code_j;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out_j))
    [ {|"ok": false|}; {|"diagnostics"|}; {|"code": "FG0207"|};
      {|"code": "FG0303"|}; {|"code": "FG0402"|} ]

let test_verify_json () =
  let code, out = run_cmd "verify --format=json -e '41 + 1'" ~stdin_text:"" in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ {|"theorem": true|}; {|"fg_type": "int"|}; {|"systemf_type": "int"|} ]

(* Golden test for the machine-readable diagnostics shape: the exact
   bytes a JSON consumer of `run --format=json` sees on a type error. *)
let test_json_diagnostics_golden () =
  let code, out =
    run_cmd "run --format=json -e '1 + true'" ~stdin_text:""
  in
  Alcotest.(check int) "nonzero exit" 1 code;
  Alcotest.(check string) "diagnostics array shape"
    ({|{"file": "<expr>", "ok": false, "diagnostics": [{"code": "FG0303", |}
    ^ {|"severity": "error", "phase": "type error", "message": |}
    ^ {|"argument: expected int but got bool", "span": {"file": "<expr>", |}
    ^ {|"start": {"line": 1, "col": 5}, "end": {"line": 1, "col": 9}}, |}
    ^ {|"notes": []}]}|})
    out

(* Golden test for the fuzz report shape, plus end-to-end determinism:
   the same seed must produce byte-identical reports, and a clean run
   must exit 0. *)
let test_fuzz_cli () =
  let code, out =
    run_cmd "fuzz --seed 42 --count 5 --format=json" ~stdin_text:""
  in
  Alcotest.(check int) "clean run exits 0" 0 code;
  Alcotest.(check string) "fuzz report shape"
    ({|{"fuzz": {"seed": 42, "count": 5, "size": 30, "mutants": 2}, |}
    ^ {|"generated": 5, "mutants_run": 10, "ok": true, "failures": []}|})
    out;
  let code2, out2 =
    run_cmd "fuzz --seed 42 --count 5 --format=json" ~stdin_text:""
  in
  Alcotest.(check int) "second run exits 0" 0 code2;
  Alcotest.(check string) "byte-identical across runs" out out2

let test_fuzz_cli_text () =
  let code, out =
    run_cmd "fuzz --seed 7 --count 3 --mutants 1" ~stdin_text:""
  in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ "3 programs"; "3 mutants"; "ok" ]

let test_stats_flag () =
  let code, out =
    run_cmd "run --stats -p -e 'power[int](2, 5)'" ~stdin_text:""
  in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ "10"; "phase wall time"; "prelude builds"; "model lookups" ]

let with_program_files bodies f =
  let files =
    List.map
      (fun body ->
        let path = Filename.temp_file "fgc_batch" ".fg" in
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        path)
      bodies
  in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove files)
    (fun () -> f files)

let test_batch () =
  with_program_files
    [ "power[int](2, 3)"; "power[int](2, 4)"; "1 + true" ]
    (fun files ->
      let args =
        "batch -p --domains 2 "
        ^ String.concat " " (List.map Filename.quote files)
      in
      let code, out = run_cmd args ~stdin_text:"" in
      (* one program fails, so the batch exits non-zero but still
         reports every result, in argument order *)
      Alcotest.(check int) "exit" 1 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true
            (Astring_contains.contains ~needle out))
        [ "6"; "8"; "ERROR"; "2/3 ok" ])

let test_batch_json () =
  with_program_files
    [ "power[int](2, 3)"; "power[int](2, 4)" ]
    (fun files ->
      let args =
        "batch -p --format=json "
        ^ String.concat " " (List.map Filename.quote files)
      in
      let code, out = run_cmd args ~stdin_text:"" in
      Alcotest.(check int) "exit" 0 code;
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true
            (Astring_contains.contains ~needle out))
        [ {|"value": 6|}; {|"value": 8|}; {|"ok": true|} ])

let test_corpus_all () =
  let code, out = run_cmd "corpus --all --domains 2" ~stdin_text:"" in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [ "fig5_accumulate"; "neg_param_diverging"; "/40 as expected" ]

let test_repl_session () =
  let session =
    ":prelude\n\
     accumulate(cons[int](1, cons[int](2, nil[int])))\n\
     concept Show<t> { sh : fn(t) -> int; }\n\
     model Show<bool> { sh = fun (b : bool) => if b then 1 else 0; }\n\
     Show<bool>.sh(true)\n\
     :type accumulate\n\
     :quit\n"
  in
  let code, out = run_cmd "repl" ~stdin_text:session in
  Alcotest.(check int) "exit" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring_contains.contains ~needle out))
    [
      "- : int = 3";
      "defined.";
      "- : int = 1";
      "- : forall t where Monoid<t>. fn(list t) -> t";
    ]

(* `using` is a declaration: it must commit to the session (the named
   model becomes eligible for resolution), not be parsed as an
   expression. *)
let test_repl_using () =
  let session =
    "concept S<t> { op : fn(t, t) -> t; }\n\
     model addm = S<int> { op = iadd; }\n\
     using addm\n\
     S<int>.op(20, 22)\n\
     :quit\n"
  in
  let code, out = run_cmd "repl" ~stdin_text:session in
  Alcotest.(check int) "exit" 0 code;
  (* each prompt line echoes as "fg> defined." *)
  let defined_count =
    List.length
      (List.filter
         (fun l -> Astring_contains.contains ~needle:"defined." l)
         (String.split_on_char '\n' out))
  in
  Alcotest.(check int) "three declarations committed" 3 defined_count;
  Alcotest.(check bool) "resolves through using" true
    (Astring_contains.contains ~needle:"- : int = 42" out)

(* --backend: accepted by every driving subcommand, rejected with the
   stable FG1001 diagnostic (not a cmdliner usage error) everywhere. *)
let test_backend_flag () =
  let src =
    "'concept N<t> { m : fn(t, t) -> t; } in model N<int> { m = imult; } in \
     let sq = tfun t where N<t> => fun (x : t) => N<t>.m(x, x) in sq(4)'"
  in
  check_out ("run --backend=stencil -e " ^ src) "16";
  check_out ("run --backend=hybrid -e " ^ src) "16";
  let code, out =
    run_cmd ("run -v --backend=stencil -e " ^ src) ~stdin_text:""
  in
  Alcotest.(check int) "verbose exit" 0 code;
  Alcotest.(check bool) "verbose reports stencils" true
    (Astring_contains.contains ~needle:"1 stencils" out);
  let code, out =
    run_cmd ("run --format=json --backend=hybrid -e " ^ src) ~stdin_text:""
  in
  Alcotest.(check int) "json exit" 0 code;
  Alcotest.(check bool) "json backend field" true
    (Astring_contains.contains ~needle:"\"backend\": \"hybrid\"" out);
  List.iter
    (fun cmd ->
      let code, out =
        run_cmd (cmd ^ " --backend=jit -e '1 + 1'") ~stdin_text:""
      in
      Alcotest.(check bool) (cmd ^ " rejects with nonzero exit") true
        (code <> 0);
      Alcotest.(check bool) (cmd ^ " names FG1001") true
        (Astring_contains.contains ~needle:"FG1001" out))
    [ "run"; "check"; "translate" ];
  let code, out = run_cmd "fuzz --count 1 --backend=jit" ~stdin_text:"" in
  Alcotest.(check bool) "fuzz rejects" true (code <> 0);
  Alcotest.(check bool) "fuzz names FG1001" true
    (Astring_contains.contains ~needle:"FG1001" out);
  (* the retired guided backend is an unknown name like any other, and
     the note lists the three that remain *)
  let code, out = run_cmd "run --backend=guided -e 1" ~stdin_text:"" in
  Alcotest.(check int) "guided exit" 1 code;
  Alcotest.(check bool) "guided names FG1001" true
    (Astring_contains.contains ~needle:"FG1001" out);
  Alcotest.(check bool) "guided note lists the backends" true
    (Astring_contains.contains ~needle:"known backends: dict, stencil, hybrid"
       out);
  (* --profile is no flag at all: a cmdliner usage error *)
  let code, _ = run_cmd "run --profile f -e 1" ~stdin_text:"" in
  Alcotest.(check int) "--profile is a usage error" 124 code

(* FG1002: a --cache-dir that cannot be used as a store directory is a
   configuration error, reported before anything runs. *)
let test_bad_cache_dir () =
  let file = Filename.temp_file "fgc_not_a_dir" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let code, out =
        run_cmd
          ("run --cache-dir " ^ Filename.quote file ^ " -e 1")
          ~stdin_text:""
      in
      Alcotest.(check int) "exit" 1 code;
      Alcotest.(check bool) "FG1002 configuration error" true
        (Astring_contains.contains ~needle:"configuration error[FG1002]" out))

(* Runs fgc with OCAMLRUNPARAM and CAMLRUNPARAM unset and then [env]
   (a list of VAR=value words) added, stdin empty; returns the exit
   code, stdout and stderr. *)
let run_env env args =
  let out_file = Filename.temp_file "fgc_out" ".txt" in
  let err_file = Filename.temp_file "fgc_err" ".txt" in
  let cmd =
    Printf.sprintf
      "env -u OCAMLRUNPARAM -u CAMLRUNPARAM %s %s %s < /dev/null > %s 2> %s"
      env (Filename.quote fgc) args (Filename.quote out_file)
      (Filename.quote err_file)
  in
  let code = Sys.command cmd in
  let out = slurp out_file in
  (code, out, slurp err_file)

(* One-shot runs collect nothing: fgc starts its one-shot subcommands
   with a minor heap large enough that loading the prelude image
   requests no major slice (bin/oneshot_heap.c).  [v=0x400] makes the
   runtime print its GC counters on stderr at exit.  A user's own [s=]
   still wins: a 32k-word heap is exhausted by the run's own minor
   allocation (over 100k words), so it collects however small the
   image gets.  Stdout is the same bytes with or without either
   variable. *)
let test_oneshot_gc () =
  let count err key =
    let prefix = key ^ ": " in
    match
      List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' err)
    with
    | Some l ->
        let n = String.length prefix in
        int_of_string (String.sub l n (String.length l - n))
    | None -> Alcotest.failf "no %s line on stderr:\n%s" key err
  in
  List.iter
    (fun cmd ->
      let args = cmd ^ " ../programs/merge_example.fg" in
      let code, plain, _ = run_env "" args in
      Alcotest.(check int) (args ^ " exit") 0 code;
      let run env =
        let code, out, err = run_env env args in
        Alcotest.(check int) (env ^ " " ^ args ^ " exit") 0 code;
        Alcotest.(check string) (env ^ " " ^ args ^ " stdout") plain out;
        (count err "minor_collections", count err "major_collections")
      in
      List.iter
        (fun env ->
          Alcotest.(check (pair int int))
            (env ^ " " ^ args ^ " collections") (0, 0) (run env))
        [ "OCAMLRUNPARAM=v=0x400"; "CAMLRUNPARAM=v=0x400" ];
      let minor, _ = run "OCAMLRUNPARAM=s=32k,v=0x400" in
      Alcotest.(check bool) (args ^ ": the user's s= wins") true (minor > 0))
    [ "run --format=json -p"; "check -p"; "verify -p" ]

let suite =
  [
    Alcotest.test_case "run" `Quick test_run;
    Alcotest.test_case "run --verbose" `Quick test_run_verbose;
    Alcotest.test_case "check" `Quick test_check;
    Alcotest.test_case "translate --type" `Quick test_translate;
    Alcotest.test_case "verify" `Quick test_verify;
    Alcotest.test_case "elaborate" `Quick test_elaborate;
    Alcotest.test_case "error exit code" `Quick test_error_exit_code;
    Alcotest.test_case "--global-models" `Quick test_global_flag;
    Alcotest.test_case "corpus listing" `Quick test_corpus_listing;
    Alcotest.test_case "corpus run" `Quick test_corpus_run;
    Alcotest.test_case "eq" `Quick test_eq;
    Alcotest.test_case "stdin input" `Quick test_stdin_input;
    Alcotest.test_case "run --format=json" `Quick test_run_json;
    Alcotest.test_case "json error shape" `Quick test_json_error;
    Alcotest.test_case "multi-error run" `Quick test_multi_error;
    Alcotest.test_case "verify --format=json" `Quick test_verify_json;
    Alcotest.test_case "json diagnostics golden" `Quick
      test_json_diagnostics_golden;
    Alcotest.test_case "fuzz --format=json golden" `Quick test_fuzz_cli;
    Alcotest.test_case "fuzz text summary" `Quick test_fuzz_cli_text;
    Alcotest.test_case "--stats" `Quick test_stats_flag;
    Alcotest.test_case "batch" `Quick test_batch;
    Alcotest.test_case "batch --format=json" `Quick test_batch_json;
    Alcotest.test_case "corpus --all" `Quick test_corpus_all;
    Alcotest.test_case "repl session" `Quick test_repl_session;
    Alcotest.test_case "repl using commits" `Quick test_repl_using;
    Alcotest.test_case "--backend flag" `Quick test_backend_flag;
    Alcotest.test_case "--cache-dir not a directory" `Quick
      test_bad_cache_dir;
    Alcotest.test_case "one-shot runs collect nothing" `Quick test_oneshot_gc;
  ]
