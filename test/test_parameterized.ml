(* Tests for parameterized models — the Section 6 "parameterized
   models" extension (the FG analogue of Haskell's parameterized
   instances): declaration checking, recursive instance construction,
   resolution through contexts, interaction with associated types, and
   specialization by lexical shadowing.  Every positive case runs
   through the full pipeline, so the theorem and interpreter/translation
   agreement are re-verified on each. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let check ?(resolution = Resolution.Lexical) src expected =
  let s = Session.of_config { Session.Config.default with resolution } in
  match Session.run_result ~file:"parameterized" s src with
  | Ok out ->
      Alcotest.(check string) src expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" src (Fg_util.Diag.to_string d)

let check_fails src phase =
  match Session.run_result ~file:"parameterized" (session ()) src with
  | Ok out ->
      Alcotest.failf "%s: expected failure, got %s" src
        (Interp.flat_to_string out.value)
  | Error d ->
      if d.phase <> phase then
        Alcotest.failf "%s: wrong phase: %s" src (Fg_util.Diag.to_string d)

let eq_defs =
  {|concept Eq<t> { eq : fn(t, t) -> bool; } in
model Eq<int> { eq = ieq; } in
model Eq<bool> { eq = beq; } in
model <t> where Eq<t> => Eq<list t> {
  eq = fix (go : fn(list t, list t) -> bool) =>
    fun (a : list t, b : list t) =>
      if null[t](a) then null[t](b)
      else if null[t](b) then false
      else Eq<t>.eq(car[t](a), car[t](b)) && go(cdr[t](a), cdr[t](b));
} in
|}

let test_basic_instance () =
  check (eq_defs ^ "Eq<list int>.eq(cons[int](1, nil[int]), cons[int](1, nil[int]))")
    "true";
  check (eq_defs ^ "Eq<list bool>.eq(nil[bool], cons[bool](true, nil[bool]))")
    "false"

let test_triple_nesting () =
  check
    (eq_defs
   ^ {|let x = cons[list (list int)](cons[list int](cons[int](7, nil[int]), nil[list int]), nil[list (list int)]) in
Eq<list (list (list int))>.eq(x, x)|})
    "true"

let test_instance_in_generic () =
  check
    (eq_defs
   ^ {|let f = tfun t where Eq<t> => fun (x : t) => Eq<list t>.eq(cons[t](x, nil[t]), nil[t]) in
f[int](3)|})
    "false"

let test_specialization_by_shadowing () =
  (* a later, more specific ground model shadows the parameterized one *)
  check
    (eq_defs
   ^ {|model Eq<list int> { eq = fun (a : list int, b : list int) => true; } in
(Eq<list int>.eq(cons[int](1, nil[int]), nil[int]),
 Eq<list bool>.eq(cons[bool](true, nil[bool]), nil[bool]))|})
    "(true, false)"

let test_multi_param_parameterized () =
  (* mapping through a parameterized Convert instance at list types *)
  check
    {|concept Convert<a, b> { convert : fn(a) -> b; } in
model Convert<int, bool> { convert = fun (n : int) => n != 0; } in
model <a, b> where Convert<a, b> => Convert<list a, list b> {
  convert = fix (go : fn(list a) -> list b) =>
    fun (xs : list a) =>
      if null[a](xs) then nil[b]
      else cons[b](Convert<a, b>.convert(car[a](xs)), go(cdr[a](xs)));
} in
Convert<list int, list bool>.convert(cons[int](0, cons[int](3, nil[int])))|}
    "[false, true]"

let test_parameterized_with_assoc () =
  (* a parameterized model assigning an associated type from its own
     parameter; projections normalize through the match *)
  check
    {|concept Iterator<i> { types elt; curr : fn(i) -> elt; rest : fn(i) -> i; stop : fn(i) -> bool; } in
model <t> Iterator<list t> {
  types elt = t;
  curr = fun (ls : list t) => car[t](ls);
  rest = fun (ls : list t) => cdr[t](ls);
  stop = fun (ls : list t) => null[t](ls);
} in
let first = tfun i where Iterator<i> => fun (it : i) => Iterator<i>.curr(it) in
(first[list int](cons[int](9, nil[int])),
 first[list bool](cons[bool](true, nil[bool])))|}
    "(9, true)"

let test_refining_parameterized () =
  (* a parameterized model of a refining concept: the refinement
     requirement is itself discharged by a parameterized model *)
  check
    {|concept Semigroup<t> { op : fn(t, t) -> t; } in
concept Monoid<t> { refines Semigroup<t>; unit_elt : t; } in
model <t> Semigroup<list t> {
  op = fun (a : list t, b : list t) => append[t](a, b);
} in
model <t> Monoid<list t> { unit_elt = nil[t]; } in
Monoid<list int>.op(Monoid<list int>.unit_elt, cons[int](5, nil[int]))|}
    "[5]"

let test_context_through_refinement () =
  (* Ord<list t> needs Eq<list t> (refinement), which needs Eq<t>,
     which comes from Ord<t> (refinement of the context) — a chain
     through both refinement and parameterized contexts *)
  check
    (Prelude.wrap
       {|let xs = cons[int](1, cons[int](2, nil[int])) in
let ys = cons[int](1, cons[int](3, nil[int])) in
(Ord<list int>.less(xs, ys), Ord<list int>.less(ys, xs),
 Ord<list int>.less(nil[int], xs))|})
    "(true, false, true)"

let test_prelude_generic_algorithms_at_lists () =
  let l = Prelude.int_list in
  (* count at list (list int): Eq<list int> via the parameterized model *)
  check
    (Prelude.wrap
       (Printf.sprintf
          "count[list (list int)](cons[list int](%s, cons[list int](%s, cons[list int](%s, nil[list int]))), %s)"
          (l [ 1; 2 ]) (l [ 3 ]) (l [ 1; 2 ]) (l [ 1; 2 ])))
    "2";
  (* accumulate at list int: the parameterized list monoid concatenates *)
  check
    (Prelude.wrap
       (Printf.sprintf
          "accumulate[list int](cons[list int](%s, cons[list int](%s, nil[list int])))"
          (l [ 1 ]) (l [ 2; 3 ])))
    "[1, 2, 3]";
  (* min_element at list int: lexicographic Ord via parameterized model *)
  check
    (Prelude.wrap
       (Printf.sprintf
          "min_element[list (list int)](cons[list int](%s, nil[list int]), %s)"
          (l [ 1; 2 ]) (l [ 1; 3 ])))
    "[1, 2]";
  (* accumulate_iter at list bool via the parameterized Iterator and a
     local bool monoid *)
  check
    (Prelude.wrap
       ({|model Semigroup<bool> { binary_op = bor; } in
model Monoid<bool> { identity_elt = false; } in
accumulate_iter[list bool](cons[bool](false, cons[bool](true, nil[bool])))|}))
    "true"

let test_translation_shape () =
  (* the parameterized dictionary is a fix-bound polymorphic function *)
  let f = Check.translate (Parser.exp_of_string (eq_defs ^ "0")) in
  let s = Fg_systemf.Pretty.exp_to_flat_string f in
  Alcotest.(check bool) "fix-bound dictionary" true
    (Astring_contains.contains ~needle:"fix (Eq_" s);
  Alcotest.(check bool) "polymorphic" true
    (Astring_contains.contains ~needle:"forall t. fn(tuple(fn(t, t) -> bool))"
       s)

let test_global_mode_compatible () =
  (* parameterized models are fine under global resolution when unique *)
  check ~resolution:Resolution.Global
    (eq_defs ^ "Eq<list int>.eq(nil[int], nil[int])")
    "true"

let test_global_mode_overlap_rejected () =
  let src =
    {|concept Eq<t> { eq : fn(t, t) -> bool; } in
model <t> Eq<list t> { eq = fun (a : list t, b : list t) => true; } in
model <u> Eq<list u> { eq = fun (a : list u, b : list u) => false; } in
0|}
  in
  match
    Session.run_result ~file:"overlap"
      (Session.of_config
         { Session.Config.default with resolution = Resolution.Global })
      src
  with
  | Ok _ -> Alcotest.fail "expected global-mode overlap rejection"
  | Error d ->
      Alcotest.(check bool) "overlap" true
        (Astring_contains.contains ~needle:"overlapping" d.message)

let test_unused_param_rejected () =
  check_fails
    {|concept Eq<t> { eq : fn(t, t) -> bool; } in
model <t, u> Eq<list t> { eq = fun (a : list t, b : list t) => true; } in 0|}
    Fg_util.Diag.Wf

let test_missing_context_rejected () =
  check_fails
    (eq_defs ^ "Eq<list unit>.eq(nil[unit], nil[unit])")
    Fg_util.Diag.Resolve

let test_divergence_fused () =
  check_fails
    {|concept C<t> { v : t; } in
model <t> where C<list t> => C<t> { v = C<list t>.v(0); } in
C<int>.v|}
    Fg_util.Diag.Resolve

(* FG0405 pinned: code, span and exact text.  Each requirement asks for
   C at a list one level deeper, and the fuse trips while normalizing
   the argument of the 65th, so the subject is list^64 int, printed
   with the line breaks the message's pretty-printer gives it. *)
let test_depth_fuse_text () =
  let src =
    "concept C<t> { m : fn(t) -> int; } in\n\
     model <t> where C<list t> => C<t> { m = fun (x : t) => 0; } in\n\
     C<int>.m(1)"
  in
  let indent = "\n" ^ String.make 66 ' ' in
  let subject =
    String.concat "" (List.init 12 (fun _ -> "list ("))
    ^ String.concat "" (List.init 49 (fun _ -> indent ^ "list ("))
    ^ indent ^ "list (list (list int" ^ String.make 63 ')'
  in
  let s = Session.of_config Session.Config.default in
  match Session.run_result ~file:"div.fg" s src with
  | Ok _ -> Alcotest.fail "expected the resolution depth fuse"
  | Error d ->
      Alcotest.(check string) "code" "FG0405" d.code;
      Alcotest.(check string) "text"
        ("div.fg:3:1-9: resolution error[FG0405]: model resolution exceeded \
          depth 64 while resolving " ^ subject
       ^ " (diverging parameterized models?)")
        (Fg_util.Diag.to_string d)

(* One [Eq<list t>] chain used under three [Eq<int>] models: the
   program's own, a shadowing one in a [let] scope, and a named one
   under [using].  The checker caches each parameterized model's
   where-clause plan per run and the interpreter memoizes model lookup
   per scope, so a memo keyed too coarsely would answer one scope with
   another's model.  Both semantics must give each scope its own. *)
let test_chain_per_scope () =
  let src =
    eq_defs
    ^ {|model below = Eq<int> { eq = fun (a : int, b : int) => a < b; } in
let one = cons[int](1, nil[int]) in
let two = cons[int](2, nil[int]) in
let outer = (Eq<list int>.eq(one, two), Eq<list int>.eq(two, two)) in
let shadowed =
  model Eq<int> { eq = fun (a : int, b : int) => true; } in
  (Eq<list int>.eq(one, two), Eq<list int>.eq(two, one)) in
let named =
  using below in (Eq<list int>.eq(one, two), Eq<list int>.eq(two, one)) in
let again = (Eq<list int>.eq(one, two), Eq<list int>.eq(two, two)) in
(outer, shadowed, named, again)|}
  in
  let expected =
    "((false, true), (true, true), (true, false), (false, true))"
  in
  match Session.run_result ~file:"scopes.fg" (session ()) src with
  | Error d -> Alcotest.failf "scopes: %s" (Fg_util.Diag.to_string d)
  | Ok out ->
      Alcotest.(check string) "interpreter" expected
        (Interp.flat_to_string out.value);
      Alcotest.(check string) "translation" expected
        (Interp.flat_to_string
           (Interp.flatten_f (Fg_systemf.Eval.run_value out.f_exp)))

(* A parameterized [Eq2<list t>] used after its concept is redeclared
   with an associated type: the use site's where-clause plan gains a
   slot for [r], which nothing binds, so translation fails with FG0501.
   In the second program the model is used once before the
   redeclaration, so a plan cached without the concept-table
   generation would be reused at the second use and hide the error. *)
let test_plan_follows_concept_table () =
  let model =
    {|concept Eq2<t> { eq : fn(t, t) -> bool; } in
model Eq2<int> { eq = ieq; } in
model <t> where Eq2<t> => Eq2<list t> {
  eq = fun (a : list t, b : list t) => null[t](a) && null[t](b);
} in
|}
  in
  let redeclared =
    {|concept Eq2<t> { types r; eq : fn(t, t) -> bool; } in
Eq2<list int>.eq(nil[int], nil[int])|}
  in
  List.iter
    (fun (src, line) ->
      match Session.run_result ~file:"eq2.fg" (session ()) src with
      | Ok out ->
          Alcotest.failf "expected FG0501, got %s"
            (Interp.flat_to_string out.value)
      | Error d ->
          Alcotest.(check string) "code" "FG0501" d.code;
          Alcotest.(check string) "text"
            (Printf.sprintf
               "eq2.fg:%d:1-17: translation error[FG0501]: associated type \
                Eq2<int>.r has no known binding (no model of Eq2<int> in \
                scope?)"
               line)
            (Fg_util.Diag.to_string d))
    [
      (model ^ redeclared, 7);
      (model ^ "let first = Eq2<list int>.eq(nil[int], nil[int]) in\n"
       ^ redeclared, 8);
    ]

(* The checker reuses a parameterized model's where-clause plan within a
   run and advances the fresh-name supply past the names computing it
   again would have drawn.  Here the second use of [Eq<list (list
   int)>] reuses the plan, and the dictionary parameter of the generic
   declared after it shows where the supply stands: [Eq_23], as before
   plans were reused. *)
let test_names_after_reused_plan () =
  let src =
    eq_defs
    ^ {|let x = Eq<list (list int)>.eq(nil[list int], nil[list int]) in
let y = Eq<list (list int)>.eq(nil[list int], nil[list int]) in
let reflexive = tfun u where Eq<u> => fun (a : u) => Eq<u>.eq(a, a) in
(x, y, reflexive[list bool](nil[bool]))|}
  in
  match Session.run_result ~file:"names.fg" (session ()) src with
  | Error d -> Alcotest.failf "names: %s" (Fg_util.Diag.to_string d)
  | Ok out ->
      Alcotest.(check string) "value" "(true, true, true)"
        (Interp.flat_to_string out.value);
      let f = Fg_systemf.Pretty.exp_to_flat_string out.f_exp in
      Alcotest.(check bool) "dictionary parameter Eq_23" true
        (Astring_contains.contains
           ~needle:
             "fun (Eq_23 : tuple(fn(u, u) -> bool)) => fun (a : u) => \
              nth Eq_23 0(a, a)"
           f)

(* Fuel that runs out inside a depth-20 chain.  The session evaluates
   the translation first, so its exhaustion is what [run_full]
   reports; the interpreter, run alone, spends one step per chain level
   (on the member access) and then one per [fix], and finding a model
   spends none.  Each message is the one recorded before model lookup
   was memoized. *)
let test_fuel_in_chain () =
  let src = Genprog.param_depth 20 in
  let diags fuel =
    let r = Session.run_full ~file:"pd20.fg" ~fuel (session ()) src in
    Alcotest.(check bool) (Printf.sprintf "fuel %d: no outcome" fuel) true
      (r.Session.outcome = None);
    List.map
      (fun (d : Fg_util.Diag.diagnostic) ->
        d.code ^ " " ^ Fg_util.Diag.to_string d)
      r.Session.diagnostics
  in
  let exhausted span =
    "FG0601 pd20.fg:" ^ span
    ^ ": runtime error[FG0601]: evaluation fuel exhausted"
  in
  List.iter
    (fun (fuel, span) ->
      Alcotest.(check (list string)) (Printf.sprintf "run_full fuel %d" fuel)
        [ exhausted span ] (diags fuel))
    [ (10, "10:1-151"); (30, "4:8-8:70"); (63, "6:26-36") ];
  let _, elaborated, _ =
    Check.elaborate (Parser.exp_of_string ~file:"pd20.fg" src)
  in
  List.iter
    (fun (fuel, span) ->
      match Interp.run_program ~fuel elaborated with
      | v, steps ->
          Alcotest.failf "interpreter fuel %d: got %s in %d steps" fuel
            (Interp.value_to_string v) steps
      | exception Fg_util.Diag.Error d ->
          Alcotest.(check string) (Printf.sprintf "interpreter fuel %d" fuel)
            (exhausted span) (d.code ^ " " ^ Fg_util.Diag.to_string d))
    [ (1, "10:1-151"); (20, "10:1-151"); (21, "4:8-8:70"); (43, "6:26-36") ];
  let v, steps = Interp.run_program ~fuel:44 elaborated in
  Alcotest.(check string) "interpreter fuel 44" "true in 44"
    (Printf.sprintf "%s in %d" (Interp.value_to_string v) steps)

let prop_parameterized_agreement =
  (* random element lists, equality through the parameterized instance:
     direct interpreter and translation agree with the OCaml oracle *)
  QCheck.Test.make ~name:"Eq<list int> agrees with OCaml equality" ~count:100
    QCheck.(pair (list (int_bound 3)) (list (int_bound 3)))
    (fun (xs, ys) ->
      let lit ns =
        List.fold_right
          (fun n acc -> Printf.sprintf "cons[int](%d, %s)" n acc)
          ns "nil[int]"
      in
      let src =
        eq_defs ^ Printf.sprintf "Eq<list int>.eq(%s, %s)" (lit xs) (lit ys)
      in
      let out = Session.run ~file:"prop" (session ()) src in
      Interp.flat_equal out.value (Interp.FlBool (xs = ys)))

let suite =
  [
    Alcotest.test_case "basic instance" `Quick test_basic_instance;
    Alcotest.test_case "triple nesting" `Quick test_triple_nesting;
    Alcotest.test_case "instance inside a generic" `Quick
      test_instance_in_generic;
    Alcotest.test_case "specialization by shadowing" `Quick
      test_specialization_by_shadowing;
    Alcotest.test_case "multi-parameter instance" `Quick
      test_multi_param_parameterized;
    Alcotest.test_case "associated types in instances" `Quick
      test_parameterized_with_assoc;
    Alcotest.test_case "refinement between instances" `Quick
      test_refining_parameterized;
    Alcotest.test_case "context through refinement (Ord<list t>)" `Quick
      test_context_through_refinement;
    Alcotest.test_case "prelude algorithms at list types" `Quick
      test_prelude_generic_algorithms_at_lists;
    Alcotest.test_case "translation shape (fix + forall)" `Quick
      test_translation_shape;
    Alcotest.test_case "global mode compatible" `Quick
      test_global_mode_compatible;
    Alcotest.test_case "global mode overlap rejected" `Quick
      test_global_mode_overlap_rejected;
    Alcotest.test_case "unused parameter rejected" `Quick
      test_unused_param_rejected;
    Alcotest.test_case "missing context rejected" `Quick
      test_missing_context_rejected;
    Alcotest.test_case "divergence fused" `Quick test_divergence_fused;
    Alcotest.test_case "FG0405 code and text" `Quick test_depth_fuse_text;
    Alcotest.test_case "one chain, each scope's model" `Quick
      test_chain_per_scope;
    Alcotest.test_case "plan follows the concept table" `Quick
      test_plan_follows_concept_table;
    Alcotest.test_case "fresh names after a reused plan" `Quick
      test_names_after_reused_plan;
    Alcotest.test_case "fuel runs out inside a chain" `Quick test_fuel_in_chain;
    QCheck_alcotest.to_alcotest prop_parameterized_agreement;
  ]
