(* Tests for named models (Section 6, after Kahl & Scheffczyk's named
   instances): `model m = C<τ̄> {...}` declares without activating;
   `using m in e` activates lexically.  Named models give explicit
   control over overlap — the managed alternative to Figure 6's scoped
   shadowing. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let check src expected =
  match Session.run_result ~file:"named" (session ()) src with
  | Ok out ->
      Alcotest.(check string) src expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" src (Fg_util.Diag.to_string d)

let check_fails src phase fragment =
  match Session.run_result ~file:"named" (session ()) src with
  | Ok out ->
      Alcotest.failf "%s: expected failure, got %s" src
        (Interp.flat_to_string out.value)
  | Error d ->
      if d.phase <> phase then
        Alcotest.failf "%s: wrong phase %s" src (Fg_util.Diag.to_string d);
      if not (Astring_contains.contains ~needle:fragment d.message) then
        Alcotest.failf "%s: wrong message %s" src d.message

let monoid2 =
  {|concept Monoid2<t> { op : fn(t, t) -> t; unit_elt : t; } in
let fold =
  tfun t where Monoid2<t> =>
    fix (go : fn(list t) -> t) =>
      fun (ls : list t) =>
        if null[t](ls) then Monoid2<t>.unit_elt
        else Monoid2<t>.op(car[t](ls), go(cdr[t](ls)))
in
model additive = Monoid2<int> { op = iadd; unit_elt = 0; } in
model multiplicative = Monoid2<int> { op = imult; unit_elt = 1; } in
let ls = cons[int](2, cons[int](3, cons[int](4, nil[int]))) in
|}

let test_select_by_name () =
  check
    (monoid2
   ^ {|(using additive in fold[int](ls), using multiplicative in fold[int](ls))|})
    "(9, 24)"

let test_inactive_until_using () =
  check_fails
    {|concept C<t> { v : t; } in
model m = C<int> { v = 1; } in
C<int>.v|}
    Fg_util.Diag.Resolve "no model of C<int>"

let test_unknown_name () =
  check_fails {|using ghost in 0|} Fg_util.Diag.Resolve
    "unknown named model 'ghost'";
  (* at member access too *)
  check_fails
    {|concept C<t> { v : t; } in
using ghost in C<int>.v|}
    Fg_util.Diag.Resolve "unknown named model"

let test_using_scope_bounded () =
  check_fails
    (monoid2
   ^ {|let s = using additive in fold[int](ls) in
fold[int](ls)|})
    Fg_util.Diag.Resolve "no model of Monoid2<int>"

let test_using_shadows () =
  (* an active anonymous model is shadowed by a later `using` *)
  check
    (monoid2
   ^ {|model Monoid2<int> { op = iadd; unit_elt = 0; } in
(fold[int](ls), using multiplicative in fold[int](ls))|})
    "(9, 24)"

let test_named_parameterized () =
  (* a named PARAMETERIZED model: one name covers all list types *)
  check
    {|concept Sz<t> { size : fn(t) -> int; } in
model listsize = <e> Sz<list e> {
  size = fun (ls : list e) => length[e](ls);
} in
using listsize in
(Sz<list int>.size(cons[int](7, nil[int])),
 Sz<list bool>.size(nil[bool]))|}
    "(1, 0)"

let test_named_with_defaults () =
  check
    {|concept Eq2<t> {
  eq  : fn(t, t) -> bool;
  neq : fn(t, t) -> bool = fun (a : t, b : t) => !Eq2<t>.eq(a, b);
} in
model inteq = Eq2<int> { eq = ieq; } in
using inteq in Eq2<int>.neq(1, 2)|}
    "true"

let test_nested_usings () =
  check
    (monoid2
   ^ {|using additive in
let s = fold[int](ls) in
using multiplicative in
// innermost using wins
(s, fold[int](ls))|})
    "(9, 24)"

let test_global_mode_registers_named () =
  (* named models still count for global-mode overlap *)
  let src =
    {|concept C<t> { v : t; } in
model a = C<int> { v = 1; } in
model C<int> { v = 2; } in 0|}
  in
  match
    Session.run_result ~file:"named"
      (Session.of_config
         { Session.Config.default with resolution = Resolution.Global })
      src
  with
  | Ok _ -> Alcotest.fail "expected global-mode overlap"
  | Error d ->
      Alcotest.(check bool) "overlap" true
        (Astring_contains.contains ~needle:"overlapping" d.message)

let suite =
  [
    Alcotest.test_case "select by name" `Quick test_select_by_name;
    Alcotest.test_case "inactive until using" `Quick test_inactive_until_using;
    Alcotest.test_case "unknown name" `Quick test_unknown_name;
    Alcotest.test_case "using scope bounded" `Quick test_using_scope_bounded;
    Alcotest.test_case "using shadows anonymous" `Quick test_using_shadows;
    Alcotest.test_case "named parameterized model" `Quick
      test_named_parameterized;
    Alcotest.test_case "named model with defaults" `Quick
      test_named_with_defaults;
    Alcotest.test_case "nested usings" `Quick test_nested_usings;
    Alcotest.test_case "global mode registers named" `Quick
      test_global_mode_registers_named;
  ]
