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

(* A pipe has no length to read up to: a FILE that names one, here
   /dev/stdin, reads to end of file exactly as "-" does. *)
let test_pipe_input () =
  let piped args =
    let in_file = Filename.temp_file "fgc_in" ".txt" in
    let out_file = Filename.temp_file "fgc_out" ".txt" in
    Out_channel.with_open_bin in_file (fun oc ->
        output_string oc "let x = 6 in x * 7");
    let code =
      Sys.command
        (Printf.sprintf "cat %s | %s %s > %s 2>&1" (Filename.quote in_file)
           (Filename.quote fgc) args (Filename.quote out_file))
    in
    Sys.remove in_file;
    (code, slurp out_file)
  in
  let want = piped "run -" in
  Alcotest.(check (pair int string)) "run - on a pipe" (0, "42\n") want;
  Alcotest.(check (pair int string)) "run /dev/stdin = run -" want
    (piped "run /dev/stdin")

(* A concept member whose type is a constrained [forall] draws fresh
   names whenever its dictionary type is translated, including at sites
   that then throw the type away (here, the type application [g[bool]]
   between [g] and [h]).  Skipping such a type must not shift the names
   [h] gets: the bytes below are the translation before dictionary
   types were built only where kept. *)
let test_forall_member_names () =
  let src =
    {|concept Sized<t> { size : fn(t) -> int; } in
concept Mapper<t> { types e; apply : forall u where Sized<u> . fn(t, u) -> int; } in
model Sized<int> { size = fun (x : int) => x; } in
model Mapper<bool> { types e = int; apply = tfun u where Sized<u> => fun (b : bool, y : u) => Sized<u>.size(y); } in
let g = tfun t where Mapper<t> => fun (x : t) => Mapper<t>.apply[int](x, 41) in
let k = g[bool](true) in
let h = tfun t where Mapper<t> => fun (x : t) => g[t](x) + k in
h[bool](true)|}
  in
  let code, out = run_cmd "run" ~stdin_text:src in
  Alcotest.(check int) "run exit" 0 code;
  Alcotest.(check string) "value" "82" out;
  let code, out = run_cmd "translate" ~stdin_text:src in
  Alcotest.(check int) "translate exit" 0 code;
  Alcotest.(check string) "translation"
    {|let Sized_1 = tuple(fun (x : int) => x) in
let Mapper_2 =
  tuple(tfun u =>
          fun (Sized_3 : tuple(fn(u) -> int)) =>
            fun (b : bool, y : u) => nth Sized_3 0(y)) in
let g =
  tfun t e_5 =>
    fun (Mapper_4 : tuple(forall u.
                          fn(tuple(fn(u) -> int)) -> fn(t, u) -> int)) =>
      fun (x : t) => nth Mapper_4 0[int](Sized_1)(x, 41) in
let k = g[bool, int](Mapper_2)(true) in
let h =
  tfun t e_14 =>
    fun (Mapper_13 : tuple(forall u.
                           fn(tuple(fn(u) -> int)) -> fn(t, u) -> int)) =>
      fun (x : t) => iadd(g[t, e_14](Mapper_13)(x), k) in
h[bool, int](Mapper_2)(true)|}
    out

(* The same in a diamond whose shared base has such a member: the
   concept declarations throw away dictionary types that reach the
   base along two paths, and the supply must advance by the names the
   second build would have drawn ([Sz_27] below), while the type
   abstraction keeps one copy of the base per path. *)
let test_forall_member_diamond_names () =
  let src =
    {|concept Sz<t> { sz : fn(t) -> int; } in
concept D0a<t> { types s0a; v0a : t; g0 : forall u where Sz<u>. fn(u) -> t; } in
concept D0b<t> { types s0b; v0b : t; } in
concept D1a<t> { types s1a; refines D0a<t>, D0b<t>; v1a : t; } in
concept D1b<t> { types s1b; refines D0a<t>, D0b<t>; v1b : t; } in
concept D2a<t> { types s2a; refines D1a<t>, D1b<t>; v2a : t; } in
concept D2b<t> { types s2b; refines D1a<t>, D1b<t>; v2b : t; } in
model Sz<int> { sz = fun (x : int) => x; } in
model D0a<int> { types s0a = int; v0a = 1; g0 = tfun u where Sz<u> => fun (y : u) => 40 + Sz<u>.sz(y); } in
model D0b<int> { types s0b = int; v0b = 2; } in
model D1a<int> { types s1a = int; v1a = 2; } in
model D1b<int> { types s1b = int; v1b = 3; } in
model D2a<int> { types s2a = int; v2a = 4; } in
model D2b<int> { types s2b = int; v2b = 5; } in
let f = tfun t where D2a<t> => fun (x : t) => D2a<t>.g0[int](2) in
f[int](0)|}
  in
  let code, out = run_cmd "run" ~stdin_text:src in
  Alcotest.(check int) "run exit" 0 code;
  Alcotest.(check string) "value" "42" out;
  let code, out = run_cmd "translate" ~stdin_text:src in
  Alcotest.(check int) "translate exit" 0 code;
  Alcotest.(check string) "translation"
    {|let Sz_27 = tuple(fun (x : int) => x) in
let D0a_28 =
  (1,
   tfun u =>
     fun (Sz_29 : tuple(fn(u) -> int)) =>
       fun (y : u) => iadd(40, nth Sz_29 0(y))) in
let D0b_30 = tuple(2) in
let D1a_31 = (D0a_28, D0b_30, 2) in
let D1b_32 = (D0a_28, D0b_30, 3) in
let D2a_33 = (D1a_31, D1b_32, 4) in
let D2b_34 = (D1a_31, D1b_32, 5) in
let f =
  tfun t s2a_36 s1a_37 s0a_38 s0b_39 s1b_40 =>
    fun (D2a_35 : ((t * (forall u. fn(tuple(fn(u) -> int)) -> fn(u) -> t)) *
                   tuple(t) * t) *
                  ((t * (forall u. fn(tuple(fn(u) -> int)) -> fn(u) -> t)) *
                   tuple(t) * t) *
                  t) =>
      fun (x : t) => nth (nth (nth D2a_35 0) 0) 1[int](Sz_27)(2) in
f[int, int, int, int, int, int](D2a_33)(0)|}
    out

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

(* A job that throws something other than a diagnostic (here a stack
   overflow, from a literal inside 200,000 parentheses under a 1M-word
   stack limit) is that job's FG0901; every other job still reports,
   in argument order, and the batch exits 1.  The deep job runs on the
   main domain in the first batch and on a spawned one in the second. *)
let test_batch_job_throws () =
  with_program_files
    [ String.make 200_000 '(' ^ "1" ^ String.make 200_000 ')' ]
    (fun files ->
      let deep = Filename.quote (List.hd files) in
      let fig5 = "../programs/fig5_accumulate.fg" in
      List.iter
        (fun (args, needles) ->
          let code, out, err = run_env "OCAMLRUNPARAM=l=1M" args in
          Alcotest.(check int) (args ^ " exit") 1 code;
          Alcotest.(check bool) (args ^ ": no uncaught exception") false
            (Astring_contains.contains ~needle:"uncaught exception:" err);
          List.iter
            (fun needle ->
              Alcotest.(check bool) needle true
                (Astring_contains.contains ~needle out))
            needles)
        [
          ( Printf.sprintf "batch --format=json %s %s" deep fig5,
            [ {|"code": "FG0901"|}; "Stack overflow"; {|"value": 3|} ] );
          ( Printf.sprintf "batch --domains 2 %s %s %s" fig5 deep fig5,
            [ "internal error[FG0901]"; "Stack overflow"; "2/3 ok" ] );
        ])

(* The one-shot subcommands report such a crash the way they report a
   diagnostic: the same FG0901 a batch job gets, in text on stderr or
   as the JSON error object on stdout, and exit 1. *)
let test_oneshot_crash () =
  with_program_files
    [ String.make 200_000 '(' ^ "1" ^ String.make 200_000 ')' ]
    (fun files ->
      let deep = Filename.quote (List.hd files) in
      let msg =
        "uncaught exception while running this program: Stack overflow"
      in
      List.iter
        (fun cmd ->
          let args = cmd ^ " " ^ deep in
          let code, out, err = run_env "OCAMLRUNPARAM=l=1M" args in
          Alcotest.(check int) (args ^ " exit") 1 code;
          Alcotest.(check string) (args ^ " stdout") "" out;
          Alcotest.(check string) (args ^ " stderr")
            ("internal error[FG0901]: " ^ msg ^ "\n") err)
        [ "run"; "check"; "translate" ];
      let args = "run --format=json " ^ deep in
      let code, out, err = run_env "OCAMLRUNPARAM=l=1M" args in
      Alcotest.(check int) (args ^ " exit") 1 code;
      Alcotest.(check string) (args ^ " stderr") "" err;
      Alcotest.(check string) (args ^ " stdout")
        ({|{"ok": false, "diagnostics": [{"code": "FG0901", "severity": "error", "phase": "internal error", "message": "|}
        ^ msg ^ {|", "span": null, "notes": []}]}|} ^ "\n")
        out)

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

(* Start-up faults of fgc serve are the FG1004 configuration error,
   exit 1.  The host name's first label is longer than DNS allows (63
   bytes), so the lookup fails without sending a query.  A port past
   65535 is refused, not bound modulo 65536. *)
let test_serve_startup_faults () =
  List.iter
    (fun args ->
      let code, out, err = run_env "" args in
      Alcotest.(check int) (args ^ " exit") 1 code;
      Alcotest.(check string) (args ^ " stdout") "" out;
      Alcotest.(check bool) (args ^ ": FG1004") true
        (Astring_contains.contains ~needle:"configuration error[FG1004]" err))
    [ "serve --socket /no/such/dir/x.sock";
      Printf.sprintf "serve --port 1 --host %s.invalid" (String.make 64 'x');
      "serve --port 70000" ]

let workspace_actions =
  [ "open"; "edit"; "close"; "diag"; "hover"; "def"; "complete" ]

(* Every client action with no daemon listening prints one line on
   stderr and exits 7; an unknown action is a usage error (exit 124)
   that lists the valid ones. *)
let test_client_faults () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgc_no_daemon_%d.sock" (Unix.getpid ()))
  in
  let file = "../programs/merge_example.fg" in
  List.iter
    (fun action ->
      let args = Printf.sprintf "client %s --socket %s" action sock in
      let code, out, err = run_env "" args in
      Alcotest.(check int) (args ^ " exit") 7 code;
      Alcotest.(check string) (args ^ " stdout") "" out;
      Alcotest.(check (list string)) (args ^ " stderr")
        [ Printf.sprintf
            "fgc client: cannot connect to %s: No such file or directory" sock;
          "" ]
        (String.split_on_char '\n' err))
    ([ "run -e 1"; "check -e 1"; "translate -e 1"; "batch ../programs";
       "stats"; "shutdown"; "probe" ]
    @ List.map
        (fun a -> a ^ " " ^ file)
        workspace_actions);
  let code, out, err = run_env "" "client bogus" in
  Alcotest.(check int) "unknown action exit" 124 code;
  Alcotest.(check string) "unknown action stdout" "" out;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("usage error names " ^ needle) true
        (Astring_contains.contains ~needle err))
    [ "invalid value 'bogus'"; "'run'"; "'probe'"; "'complete'" ]

(* --backend is no flag any more: dictionary passing is the only
   backend, so each of the seven subcommands that took it rejects any
   value, [dict] included, as cmdliner's unknown option (exit 124,
   nothing on stdout) before anything runs or connects. *)
let test_backend_flag () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgc_no_daemon_%d.sock" (Unix.getpid ()))
  in
  List.iter
    (fun args ->
      let code, out, err = run_env "" args in
      Alcotest.(check int) (args ^ " exit") 124 code;
      Alcotest.(check string) (args ^ " stdout") "" out;
      Alcotest.(check bool) (args ^ ": unknown option") true
        (Astring_contains.contains ~needle:"unknown option '--backend'" err))
    [ "run --backend=dict -e 1";
      "check --backend=stencil -e 1";
      "translate --backend=hybrid -e 1";
      "batch --backend=dict ../programs/fig1_square.fg";
      "corpus --all --backend=stencil";
      "fuzz --count 1 --backend=hybrid";
      "client run --backend=dict -e 1 --socket " ^ sock ]

(* Usage mistakes cmdliner cannot see are still its usage errors (exit
   124, nothing on stdout), and a misused subcommand ends in a
   diagnostic (exit 1): none reaches cmdliner's "internal error" (exit
   125).  [--cache-max-bytes] and [--profile] are no flags at all, a
   negative fuzz count is a usage error in blind and guided mode alike,
   a daemon flag that would make every request fail is refused before
   a socket exists, and only the one-shot commands take [--cache-dir]:
   the others reject it before anything could create the directory. *)
let test_usage_mistakes () =
  let empty_dir = Filename.temp_dir "fgc_no_programs" "" in
  let store =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgc_no_store_%d" (Unix.getpid ()))
  in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgc_no_daemon_%d.sock" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> Unix.rmdir empty_dir)
    (fun () ->
      List.iter
        (fun (args, needle) ->
          let code, out, err = run_env "" args in
          Alcotest.(check int) (args ^ " exit") 124 code;
          Alcotest.(check string) (args ^ " stdout") "" out;
          Alcotest.(check bool) (args ^ ": " ^ needle) true
            (Astring_contains.contains ~needle err))
        ([ ("run --cache-max-bytes 10 -e 1",
            "unknown option '--cache-max-bytes'");
           ("client run a.fg b.fg", "run: give at most one FILE");
           ("client batch " ^ empty_dir, "batch: no .fg files to run");
           ("corpus nosuch", "invalid value 'nosuch', expected one of");
           ("fuzz --count=-5",
            "invalid value '-5', expected a non-negative integer");
           ("fuzz --count 3 --mutants=-1",
            "invalid value '-1', expected a non-negative integer");
           ("fuzz --guided --count=-2",
            "invalid value '-2', expected a non-negative integer");
           ("fuzz --count 1 --size=-5",
            "invalid value '-5', expected a non-negative integer");
           ("batch --domains=-2 ../programs/fig1_square.fg",
            "invalid value '-2', expected a positive integer");
           ("batch -j 0 ../programs/fig1_square.fg",
            "invalid value '0', expected a positive integer");
           ("corpus --all --domains=-1",
            "invalid value '-1', expected a positive integer");
           ("fuzz --count 1 --domains=-1", "unknown option '--domains'");
           ("fuzz --count 1 -j 2", "unknown option '-j'");
           ("serve --workers 0 --socket " ^ sock,
            "invalid value '0', expected a positive integer");
           ("serve --max-queue=-3 --socket " ^ sock,
            "invalid value '-3', expected a positive integer");
           ("run --profile f -e 1", "unknown option '--profile'");
           (* cmdliner wraps the message after the longer flag names,
              so these match its first words only *)
           ("serve --fuel=-5 --socket " ^ sock, "invalid value '-5'");
           ("serve --max-frame-bytes=-1 --socket " ^ sock,
            "invalid value '-1'");
           ("serve --max-frame-bytes=0 --socket " ^ sock,
            "invalid value '0'");
           ("serve --request-timeout-ms=-1 --socket " ^ sock,
            "invalid value '-1'");
           ("client run --timeout-ms=-1 -e 1 --socket " ^ sock,
            "invalid value '-1'");
           ("client batch --window=0 ../programs --socket " ^ sock,
            "invalid value '0'");
           ("client edit a.fg --at=-4 --del=2 --insert x --socket " ^ sock,
            "invalid value '-4'");
           ("client edit a.fg --at=4 --del=-2 --insert x --socket " ^ sock,
            "invalid value '-2'");
         ]
        @ List.map
            (fun args -> (args, "unknown option '--cache-dir'"))
            [ "batch --cache-dir " ^ store ^ " ../programs/fig1_square.fg";
              "corpus --all --cache-dir " ^ store;
              "serve --cache-dir " ^ store ^ " --socket " ^ sock ]
        @ List.map
            (fun a -> ("client " ^ a, a ^ ": give exactly one FILE"))
            workspace_actions);
      Alcotest.(check bool) "no store created" false (Sys.file_exists store);
      Alcotest.(check bool) "no socket created" false (Sys.file_exists sock));
  List.iter
    (fun (args, what) ->
      let code, out, err = run_env "" args in
      Alcotest.(check int) (args ^ " exit") 1 code;
      Alcotest.(check string) (args ^ " stdout") "" out;
      Alcotest.(check string) (args ^ " stderr")
        ("parse error[FG0101]: " ^ what ^ " (a == b)\n")
        err)
    [ ("eq -a 'Monoid<int>' 'int == int'",
       "assumptions must be same-type constraints");
      ("eq 'Monoid<int>'", "query must be a same-type constraint") ]

(* FILE arguments an action would ignore are usage errors, found
   before any connection is tried: no daemon is needed to see them. *)
let test_client_ignored_files () =
  List.iter
    (fun (args, needle) ->
      let code, out, err = run_env "" args in
      Alcotest.(check int) (args ^ " exit") 124 code;
      Alcotest.(check string) (args ^ " stdout") "" out;
      Alcotest.(check bool) (args ^ ": " ^ needle) true
        (Astring_contains.contains ~needle err))
    (List.map
       (fun a ->
         ( Printf.sprintf "client %s -e '1 + 2' a.fg" a,
           a ^ ": give -e or a FILE, not both" ))
       [ "run"; "check"; "translate" ]
    @ List.map
        (fun a -> (Printf.sprintf "client %s a.fg" a, a ^ ": takes no FILE"))
        [ "stats"; "shutdown"; "probe" ])

(* A daemon that answers the probe's violations wrongly fails the
   probe: one line on stderr, exit 1.  The stand-in answers the first
   frame it reads with an ok response and hangs up; if no client comes
   within 10 s it gives up, and the checks below fail. *)
let test_probe_failure () =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fgc_bad_daemon_%d.sock" (Unix.getpid ()))
  in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close lfd;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () ->
      Unix.bind lfd (Unix.ADDR_UNIX sock);
      Unix.listen lfd 1;
      let answer_ok () =
        match Unix.select [ lfd ] [] [] 10. with
        | [], _, _ -> ()
        | _ ->
            let fd, _ = Unix.accept lfd in
            ignore (Unix.read fd (Bytes.create 4096) 0 4096);
            let module P = Fg_server.Protocol in
            P.write_frame fd
              (Fg_util.Json.to_string
                 (P.response_to_json
                    { P.r_id = 0; r_status = P.Ok_; r_payload = "{}" }));
            Unix.close fd
      in
      let th = Thread.create answer_ok () in
      let code, out, err = run_env "" ("client probe --socket " ^ sock) in
      Thread.join th;
      Alcotest.(check int) "exit" 1 code;
      Alcotest.(check string) "stdout" "" out;
      Alcotest.(check string) "stderr"
        "fgc client: probe: garbage-json: expected status protocol_error, \
         got ok\n"
        err)

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
    Alcotest.test_case "run /dev/stdin on a pipe" `Quick test_pipe_input;
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
    Alcotest.test_case "batch survives a job that throws" `Quick
      test_batch_job_throws;
    Alcotest.test_case "one-shot runs report a crash as FG0901" `Quick
      test_oneshot_crash;
    Alcotest.test_case "corpus --all" `Quick test_corpus_all;
    Alcotest.test_case "repl session" `Quick test_repl_session;
    Alcotest.test_case "repl using commits" `Quick test_repl_using;
    Alcotest.test_case "--backend flag" `Quick test_backend_flag;
    Alcotest.test_case "--cache-dir not a directory" `Quick
      test_bad_cache_dir;
    Alcotest.test_case "one-shot runs collect nothing" `Quick test_oneshot_gc;
    Alcotest.test_case "serve start-up faults" `Quick
      test_serve_startup_faults;
    Alcotest.test_case "client faults" `Quick test_client_faults;
    Alcotest.test_case "usage mistakes" `Quick test_usage_mistakes;
    Alcotest.test_case "forall member keeps fresh names" `Quick
      test_forall_member_names;
    Alcotest.test_case "forall member in a diamond keeps fresh names" `Quick
      test_forall_member_diamond_names;
    Alcotest.test_case "client ignored FILEs" `Quick test_client_ignored_files;
    Alcotest.test_case "failed probe" `Quick test_probe_failure;
  ]
