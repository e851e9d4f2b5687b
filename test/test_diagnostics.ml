(* Golden tests for diagnostics: the exact rendered message — including
   the source location — for a fixed set of ill-formed programs.  These
   pin the user-facing error quality; update deliberately if wording
   changes. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let diag_of src =
  match Session.run_result ~file:"golden" (session ()) src with
  | Ok _ -> Alcotest.failf "%s: expected failure" src
  | Error d -> Fg_util.Diag.to_string d

let check src expected = Alcotest.(check string) src expected (diag_of src)

let test_unbound_variable () =
  check "1 + missing" "golden:1:5-12: type error[FG0302]: unbound variable 'missing'"

let test_unbound_tyvar () =
  check "fun (x : t) => x"
    "golden:1:1-17: ill-formed[FG0207]: unbound type variable 't'"

let test_unknown_concept () =
  check "Nope<int>.x" "golden:1:1-12: ill-formed[FG0202]: unknown concept 'Nope'"

let test_no_model () =
  check
    {|concept N<t> { m : t; } in
N<int>.m|}
    "golden:2:1-9: resolution error[FG0402]: no model of N<int> in scope for \
     member access\n  note: no models of N are in scope"

let test_argument_mismatch () =
  check "(fun (x : int) => x)(true)"
    "golden:1:22-26: type error[FG0303]: argument: expected int but got bool"

let test_arity () =
  check "(fun (x : int) => x)(1, 2)"
    "golden:1:2-27: type error[FG0304]: function expects 1 argument(s) but \
     is applied to 2"

let test_same_type_unsatisfied () =
  check "(tfun a b where a == b => fun (x : a) => x)[int, bool](1)"
    "golden:1:2-55: type error[FG0307]: same-type constraint not satisfied: \
     int is not equal to bool"

let test_member_missing () =
  check
    {|concept N<t> { m : t; } in
model N<int> { } in 0|}
    "golden:2:1-20: ill-formed[FG0206]: model of N<int> does not define \
     member 'm'"

let test_member_wrong_type () =
  check
    {|concept N<t> { m : t; } in
model N<int> { m = true; } in 0|}
    "golden:2:20-24: type error[FG0303]: member 'm' of model of N<int>: \
     expected int but got bool"

let test_overlap_global () =
  let src =
    {|concept N<t> { m : t; } in
model N<int> { m = 1; } in
model N<int> { m = 2; } in 0|}
  in
  let global =
    Session.of_config
      { Session.Config.default with resolution = Resolution.Global }
  in
  match Session.run_result ~file:"golden" global src with
  | Ok _ -> Alcotest.fail "expected overlap rejection"
  | Error d ->
      Alcotest.(check string) "overlap message"
        "golden:3:1-27: resolution error[FG0404]: overlapping model of N<int> \
         (global-resolution mode rejects overlapping models anywhere in the \
         program)"
        (Fg_util.Diag.to_string d)

let test_inference_failure () =
  check
    {|let f = tfun t => fun (n : int) => n in
f(1)|}
    "golden:2:1-5: type error[FG0306]: cannot infer type argument 't'; \
     instantiate explicitly with [...]"

let test_runtime_error_location () =
  check "car[int](nil[int])"
    "golden:1:1-19: runtime error[FG0601]: car of empty list"

let test_division_by_zero () =
  check "1 / 0" "golden:1:1-6: runtime error[FG0601]: division by zero"

let test_parse_error () =
  check "let x = in 0"
    "golden:1:9-11: parse error[FG0101]: expected an expression (found \
     keyword 'in')"

let test_concept_escape_message () =
  check
    {|let f = concept N<t> { m : t; } in tfun t where N<t> => 1 in 0|}
    "golden:1:9-35: type error[FG0308]: concept N escapes its scope in the \
     type forall t where N<t>. int of the body"

let suite =
  [
    Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
    Alcotest.test_case "unbound type variable" `Quick test_unbound_tyvar;
    Alcotest.test_case "unknown concept" `Quick test_unknown_concept;
    Alcotest.test_case "no model in scope" `Quick test_no_model;
    Alcotest.test_case "argument mismatch" `Quick test_argument_mismatch;
    Alcotest.test_case "arity mismatch" `Quick test_arity;
    Alcotest.test_case "same-type unsatisfied" `Quick
      test_same_type_unsatisfied;
    Alcotest.test_case "missing member" `Quick test_member_missing;
    Alcotest.test_case "member type mismatch" `Quick test_member_wrong_type;
    Alcotest.test_case "global overlap" `Quick test_overlap_global;
    Alcotest.test_case "inference failure" `Quick test_inference_failure;
    Alcotest.test_case "runtime location" `Quick test_runtime_error_location;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "parse error" `Quick test_parse_error;
    Alcotest.test_case "concept escape" `Quick test_concept_escape_message;
  ]
