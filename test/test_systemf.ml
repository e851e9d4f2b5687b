(* Tests for the System F substrate: parser round-trips, the type
   checker (positive and negative), and the evaluator. *)

open Fg_systemf
module A = Ast

let parse = Parser.exp_of_string
let parse_ty = Parser.ty_of_string

let check_ty src expected =
  let t = Typecheck.typecheck (parse src) in
  Alcotest.(check string) src expected (Pretty.ty_to_string t)

let check_fails src fragment =
  match Fg_util.Diag.protect (fun () -> Typecheck.typecheck (parse src)) with
  | Ok t ->
      Alcotest.failf "%s: expected type error, got %s" src
        (Pretty.ty_to_string t)
  | Error d ->
      if
        fragment <> ""
        && not
             (Astring_contains.contains ~needle:fragment d.message)
      then Alcotest.failf "%s: wrong error: %s" src d.message

and check_value src expected =
  let v = Eval.run_value (parse src) in
  Alcotest.(check string) src expected (Eval.value_to_string v)

(* ---------------------------------------------------------------- *)
(* Parser                                                            *)

let test_parse_atoms () =
  List.iter
    (fun (src, rendered) ->
      let e = parse src in
      Alcotest.(check string) src rendered (Pretty.exp_to_flat_string e))
    [
      ("42", "42");
      ("true", "true");
      ("()", "()");
      ("x", "x");
      ("(1, 2, 3)", "(1, 2, 3)");
      ("tuple(1)", "tuple(1)");
      ("tuple()", "tuple()");
      ("nth (1, 2) 0", "nth (1, 2) 0");
      ("f(x)(y)", "f(x)(y)");
      ("f[int]", "f[int]");
      ("f[int, bool](1)", "f[int, bool](1)");
    ]

let test_parse_operators () =
  (* operators are sugar for primitive applications *)
  List.iter
    (fun (src, rendered) ->
      Alcotest.(check string) src rendered (Pretty.exp_to_flat_string (parse src)))
    [
      ("1 + 2", "iadd(1, 2)");
      ("1 + 2 * 3", "iadd(1, imult(2, 3))");
      ("(1 + 2) * 3", "imult(iadd(1, 2), 3)");
      ("1 - 2 - 3", "isub(isub(1, 2), 3)");
      ("1 < 2", "ilt(1, 2)");
      ("1 <= 2 && true", "band(ile(1, 2), true)");
      ("true || false && true", "bor(true, band(false, true))");
      ("-x", "ineg(x)");
      ("!true", "bnot(true)");
      ("not true", "bnot(true)");
      ("1 == 2", "ieq(1, 2)");
      ("1 != 2", "ineq(1, 2)");
      ("4 / 2 % 3", "imod(idiv(4, 2), 3)");
    ]

let test_parse_types () =
  List.iter
    (fun (src, rendered) ->
      Alcotest.(check string) src rendered
        (Fg_util.Pp_util.to_flat_string Pretty.pp_ty (parse_ty src)))
    [
      ("int", "int");
      ("list int", "list int");
      ("list (list int)", "list (list int)");
      ("fn(int, bool) -> int", "fn(int, bool) -> int");
      ("fn() -> int", "fn() -> int");
      ("int * bool", "int * bool");
      ("int * bool * unit", "int * bool * unit");
      ("tuple(int)", "tuple(int)");
      ("tuple()", "tuple()");
      ("forall a. fn(a) -> a", "forall a. fn(a) -> a");
      ("forall a b. fn(a) -> b", "forall a b. fn(a) -> b");
      ("fn(fn(int) -> bool) -> int", "fn(fn(int) -> bool) -> int");
      ("(int * bool) * unit", "(int * bool) * unit");
      ("list int * bool", "list int * bool");
    ]

let test_parse_errors () =
  List.iter
    (fun src ->
      match Fg_util.Diag.protect (fun () -> parse src) with
      | Ok _ -> Alcotest.failf "%s: expected parse error" src
      | Error d ->
          Alcotest.(check bool) "phase" true
            (d.phase = Fg_util.Diag.Parser || d.phase = Fg_util.Diag.Lexer))
    [ "let x = in x"; "fun (x) => x"; "1 +"; "("; "f(x"; "nth x"; "§" ]

let test_comments () =
  check_value "1 + // line comment\n 2" "3";
  check_value "/* block /* nested */ comment */ 7" "7"

let test_roundtrip_corpus () =
  (* pretty-printed output reparses to the same AST *)
  List.iter
    (fun src ->
      let e = parse src in
      let e2 = parse (Pretty.exp_to_string e) in
      Alcotest.(check bool) src true (A.exp_equal e e2))
    [
      "let f = fun (x : int, y : bool) => if y then x else -x in f(3, true)";
      "tfun a b => fun (x : a, y : b) => (x, y)";
      "fix (go : fn(int) -> int) => fun (n : int) => if n == 0 then 0 else go(n - 1)";
      "tuple(tuple())";
      "nth (1, (2, 3)) 1";
      "cons[int](1, nil[int])";
    ]

(* ---------------------------------------------------------------- *)
(* Type checker                                                      *)

let test_typecheck_basics () =
  check_ty "42" "int";
  check_ty "true" "bool";
  check_ty "()" "unit";
  check_ty "(1, true)" "int * bool";
  check_ty "fun (x : int) => x" "fn(int) -> int";
  check_ty "tfun a => fun (x : a) => x" "forall a. fn(a) -> a";
  check_ty "(tfun a => fun (x : a) => x)[bool]" "fn(bool) -> bool";
  check_ty "let x = 1 in x + x" "int";
  check_ty "nth (1, true) 1" "bool";
  check_ty "if true then 1 else 2" "int";
  check_ty "fix (f : fn(int) -> int) => fun (x : int) => f(x)"
    "fn(int) -> int";
  check_ty "nil[int]" "list int";
  check_ty "cons[int](1, nil[int])" "list int";
  check_ty "car[int]" "fn(list int) -> int"

let test_typecheck_polymorphism () =
  check_ty "tfun a b => fun (x : a, y : b) => (y, x)"
    "forall a b. fn(a, b) -> b * a";
  check_ty "(tfun a b => fun (x : a, y : b) => (y, x))[int, bool]"
    "fn(int, bool) -> bool * int";
  (* nested type abstraction and shadowing-free instantiation *)
  check_ty "tfun a => tfun b => fun (x : a) => x"
    "forall a. forall b. fn(a) -> a";
  (* substitution must reach under binders without capture *)
  check_ty "tfun a => (tfun b => fun (x : b, y : a) => x)[list a]"
    "forall a. fn(list a, a) -> list a"

let test_typecheck_errors () =
  check_fails "x" "unbound variable";
  check_fails "1(2)" "non-function";
  check_fails "(fun (x : int) => x)(true)" "expected int";
  check_fails "(fun (x : int) => x)(1, 2)" "1 argument";
  check_fails "if 1 then 2 else 3" "if condition";
  check_fails "if true then 1 else false" "else branch";
  check_fails "nth (1, 2) 5" "out of bounds";
  check_fails "nth 3 0" "non-tuple";
  check_fails "(fun (x : int) => x)[int]" "non-polymorphic";
  check_fails "(tfun a => fun (x : a) => x)[int, bool]" "type argument";
  check_fails "fun (x : t) => x" "unbound type variable";
  check_fails "fix (x : int) => true" "fix body";
  check_fails "tfun a a => 1" "duplicate type parameter";
  check_fails "unknown_prim_xyz" "unbound variable"

(* A checked prefix [let x = 1 in let y = 2 in <hole>] is reused only
   for leading lets whose right-hand sides are the prefix's own nodes:
   a rebuilt right-hand side is checked, and so is everything after
   it. *)
let test_prefix_resume () =
  let one = A.int 1 and two = A.int 2 in
  let prefix =
    Typecheck.check_prefix ~hole:"<hole>"
      (A.let_ "x" one (A.let_ "y" two (A.var "<hole>")))
  in
  (match
     Fg_util.Diag.protect (fun () ->
         Typecheck.typecheck ~prefix
           (A.let_ "x" one (A.let_ "y" (parse "iadd(true, 1)") (A.var "y"))))
   with
  | Ok t ->
      Alcotest.failf "ill-typed second let accepted at %s"
        (Pretty.ty_to_string t)
  | Error d -> Alcotest.(check string) "second let re-checked" "FG0301" d.code);
  (* [x] is now a bool: a stale prefix would still bind it at int and
     reject [if x]. *)
  let t =
    Typecheck.typecheck ~prefix
      (A.let_ "x" (A.bool true)
         (A.let_ "y" two (A.if_ (A.var "x") (A.var "y") (A.int 0))))
  in
  Alcotest.(check string) "first let re-checked" "int" (Pretty.ty_to_string t)

let test_alpha_equal () =
  let t1 = parse_ty "forall a. fn(a) -> a" in
  let t2 = parse_ty "forall b. fn(b) -> b" in
  let t3 = parse_ty "forall a b. fn(a) -> b" in
  let t4 = parse_ty "forall b a. fn(a) -> b" in
  Alcotest.(check bool) "alpha equal" true (A.alpha_equal t1 t2);
  Alcotest.(check bool) "binder order matters" false (A.alpha_equal t3 t4);
  Alcotest.(check bool) "free vars by name" true
    (A.alpha_equal (A.TVar "x") (A.TVar "x"));
  Alcotest.(check bool) "different free vars" false
    (A.alpha_equal (A.TVar "x") (A.TVar "y"))

let test_subst_capture () =
  (* [a := b] in (forall b. fn(a) -> b) must rename the binder *)
  let t = parse_ty "forall b. fn(a) -> b" in
  let t' = A.subst_ty_list [ ("a", A.TVar "b") ] t in
  match t' with
  | A.TForall ([ fresh ], A.TArrow ([ A.TVar arg ], A.TVar ret)) ->
      Alcotest.(check string) "argument substituted" "b" arg;
      Alcotest.(check bool) "binder renamed" true (fresh <> "b");
      Alcotest.(check string) "body uses renamed binder" fresh ret
  | _ -> Alcotest.fail "unexpected shape"

(* ---------------------------------------------------------------- *)
(* Evaluator                                                         *)

let test_eval_basics () =
  check_value "1 + 2 * 3" "7";
  check_value "(fun (x : int, y : int) => x - y)(10, 4)" "6";
  check_value "let x = 5 in x * x" "25";
  check_value "if 1 < 2 then 10 else 20" "10";
  check_value "nth (1, true, ()) 2" "()";
  check_value "car[int](cons[int](9, nil[int]))" "9";
  check_value "null[int](nil[int])" "true";
  check_value "length[bool](cons[bool](true, cons[bool](false, nil[bool])))"
    "2";
  check_value "append[int](cons[int](1, nil[int]), cons[int](2, nil[int]))"
    "[1, 2]";
  check_value "imin(3, imax(1, 2))" "2";
  check_value "7 % 3" "1";
  check_value "tuple()" "()"

let test_eval_recursion () =
  check_value
    "(fix (fact : fn(int) -> int) => fun (n : int) => if n == 0 then 1 else \
     n * fact(n - 1))(6)"
    "720";
  check_value
    "(fix (fib : fn(int) -> int) => fun (n : int) => if n < 2 then n else \
     fib(n - 1) + fib(n - 2))(12)"
    "144"

let test_eval_polymorphism () =
  check_value "(tfun a => fun (x : a) => x)[int](41) + 1" "42";
  check_value "(tfun a b => fun (x : a, y : b) => (y, x))[int, bool](1, true)"
    "(true, 1)"

let test_eval_partial_prims () =
  (* primitives may be partially applied *)
  check_value "let add1 = iadd(1) in add1(41)" "42"

let test_eval_errors () =
  let expect_runtime src fragment =
    match Fg_util.Diag.protect (fun () -> Eval.run_value (parse src)) with
    | Ok v ->
        Alcotest.failf "%s: expected runtime error, got %s" src
          (Eval.value_to_string v)
    | Error d ->
        Alcotest.(check bool)
          (src ^ ": phase") true
          (d.phase = Fg_util.Diag.Eval);
        if not (Astring_contains.contains ~needle:fragment d.message) then
          Alcotest.failf "%s: wrong message %s" src d.message
  in
  expect_runtime "car[int](nil[int])" "car of empty list";
  expect_runtime "cdr[int](nil[int])" "cdr of empty list";
  expect_runtime "1 / 0" "division by zero";
  expect_runtime "1 % 0" "modulo by zero";
  expect_runtime "fix (x : int) => x" "before initialization"

let test_eval_fuel () =
  let loop =
    "(fix (f : fn(int) -> int) => fun (x : int) => f(x))(0)"
  in
  match Fg_util.Diag.protect (fun () -> Eval.run ~fuel:1000 (parse loop)) with
  | Ok _ -> Alcotest.fail "expected fuel exhaustion"
  | Error d ->
      Alcotest.(check bool) "fuel message" true
        (Astring_contains.contains ~needle:"fuel" d.message)

let test_step_counting () =
  let _, steps = Eval.run (parse "1 + 2") in
  Alcotest.(check int) "one beta step for one prim app" 1 steps;
  let _, steps2 = Eval.run (parse "(fun (x : int) => x + x)(5)") in
  Alcotest.(check int) "two steps" 2 steps2

let test_value_equal () =
  let a = Eval.run_value (parse "(1, cons[int](2, nil[int]))") in
  let b = Eval.run_value (parse "(1, cons[int](2, nil[int]))") in
  let c = Eval.run_value (parse "(1, cons[int](3, nil[int]))") in
  Alcotest.(check bool) "equal" true (Eval.value_equal a b);
  Alcotest.(check bool) "not equal" false (Eval.value_equal a c);
  let f = Eval.run_value (parse "fun (x : int) => x") in
  Alcotest.(check bool) "functions incomparable" false (Eval.value_equal f f)

(* ---------------------------------------------------------------- *)
(* Properties                                                        *)

let prop_pretty_parse_roundtrip =
  (* generate random simple F terms via the FG generator's programs
     translated to F; their pretty-printed form must reparse equal *)
  QCheck.Test.make ~name:"translated programs round-trip through printer"
    ~count:100 QCheck.(int_bound 10_000)
    (fun seed ->
      let fg = Fg_core.Gen.program_of_seed seed in
      let f = Fg_core.Check.translate fg in
      let f2 = parse (Pretty.exp_to_string f) in
      A.exp_equal f f2)

let suite =
  [
    Alcotest.test_case "parse atoms" `Quick test_parse_atoms;
    Alcotest.test_case "parse operators" `Quick test_parse_operators;
    Alcotest.test_case "parse types" `Quick test_parse_types;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "printer/parser round-trip" `Quick test_roundtrip_corpus;
    Alcotest.test_case "typecheck basics" `Quick test_typecheck_basics;
    Alcotest.test_case "typecheck polymorphism" `Quick
      test_typecheck_polymorphism;
    Alcotest.test_case "typecheck errors" `Quick test_typecheck_errors;
    Alcotest.test_case "resumed prefix re-checks rebuilt lets" `Quick
      test_prefix_resume;
    Alcotest.test_case "alpha equivalence" `Quick test_alpha_equal;
    Alcotest.test_case "capture-avoiding subst" `Quick test_subst_capture;
    Alcotest.test_case "eval basics" `Quick test_eval_basics;
    Alcotest.test_case "eval recursion" `Quick test_eval_recursion;
    Alcotest.test_case "eval polymorphism" `Quick test_eval_polymorphism;
    Alcotest.test_case "partial primitives" `Quick test_eval_partial_prims;
    Alcotest.test_case "eval errors" `Quick test_eval_errors;
    Alcotest.test_case "fuel exhaustion" `Quick test_eval_fuel;
    Alcotest.test_case "step counting" `Quick test_step_counting;
    Alcotest.test_case "value equality" `Quick test_value_equal;
    QCheck_alcotest.to_alcotest prop_pretty_parse_roundtrip;
  ]
