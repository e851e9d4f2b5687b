(* Tests for the FG type checker: typing judgments, scoping rules,
   where-clause satisfaction, model checking, and error behaviour. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let typecheck ?resolution src =
  (* escape_check off: these tests inspect the types of generic values,
     which mention concepts declared in the same program — the checker's
     default (paper CPT side condition) would reject that at the
     top-level scope boundary; see test_concept_escape in the corpus. *)
  Check.typecheck ?resolution ~escape_check:false (Parser.exp_of_string src)

let check_ty src expected =
  Alcotest.(check string) src expected (Pretty.ty_to_string (typecheck src))

let check_fails ?resolution src phase fragment =
  match Fg_util.Diag.protect (fun () -> typecheck ?resolution src) with
  | Ok t ->
      Alcotest.failf "%s: expected failure, got type %s" src
        (Pretty.ty_to_string t)
  | Error d ->
      if d.phase <> phase then
        Alcotest.failf "%s: expected %s but failed with %s" src
          (Fg_util.Diag.phase_name phase)
          (Fg_util.Diag.to_string d);
      if not (Astring_contains.contains ~needle:fragment d.message) then
        Alcotest.failf "%s: wrong message: %s" src d.message

let monoid = Corpus.monoid_prelude

(* ---------------------------------------------------------------- *)
(* Positive typing                                                   *)

let test_plain_systemf_fragment () =
  (* FG conservatively extends System F *)
  check_ty "fun (x : int) => x + 1" "fn(int) -> int";
  check_ty "tfun a => fun (x : a) => x" "forall a. fn(a) -> a";
  check_ty "(tfun a => fun (x : a) => x)[list bool]"
    "fn(list bool) -> list bool"

let test_generic_function_type () =
  check_ty
    (monoid ^ "tfun t where Monoid<t> => fun (x : t) => Semigroup<t>.binary_op(x, x)")
    "forall t where Monoid<t>. fn(t) -> t"

let test_member_access_type () =
  check_ty (monoid ^ "model Semigroup<int> { binary_op = iadd; } in Semigroup<int>.binary_op")
    "fn(int, int) -> int";
  (* inherited member through refinement *)
  check_ty
    (monoid
   ^ {|model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
Monoid<int>.binary_op|})
    "fn(int, int) -> int"

let test_instantiation_type () =
  check_ty
    (monoid
   ^ {|let f = tfun t where Monoid<t> => fun (x : t) => x in
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
f[int]|})
    "fn(int) -> int"

let test_assoc_in_result_type () =
  (* the result type mentions the associated type; at a ground
     instantiation, leaving the model's scope resolves it *)
  check_ty
    (Corpus.iterator_concept ^ Corpus.iterator_list_int_model
   ^ "fun (it : list int) => Iterator<list int>.curr(it)")
    "fn(list int) -> int"

let test_assoc_opaque_inside () =
  check_ty
    (Corpus.iterator_concept
   ^ "tfun i where Iterator<i> => fun (it : i) => Iterator<i>.curr(it)")
    "forall i where Iterator<i>. fn(i) -> Iterator<i>.elt"

let test_same_type_cast () =
  check_ty "tfun a b where a == b => fun (x : a) => x"
    "forall a b where a == b. fn(a) -> a";
  (* and using the cast at b's type: the body may treat x as b *)
  check_ty "tfun a b where a == b => fun (x : a, f : fn(b) -> int) => f(x)"
    "forall a b where a == b. fn(a, fn(b) -> int) -> int"

let test_alias_equality () =
  check_ty "type t = int in fun (x : t) => x + 1" "fn(int) -> int";
  check_ty "type t = list int in fun (x : t) => car[int](x)"
    "fn(list int) -> int";
  (* alias of an alias *)
  check_ty "type t = int in type u = t in fun (x : u) => x + 1"
    "fn(int) -> int"

let test_alias_result_substituted () =
  (* the alias must not appear in the reported type outside its scope *)
  check_ty "type t = int in fun (x : t) => x" "fn(int) -> int"

let test_concept_shadowing () =
  (* an inner concept shadows an outer one of the same name *)
  check_ty
    {|concept C<t> { v : t; } in
model C<int> { v = 1; } in
let outer = C<int>.v in
concept C<t> { w : fn(t) -> t; } in
model C<int> { w = fun (x : int) => x; } in
(outer, C<int>.w(2))|}
    "int * int"

let test_multi_param_where () =
  check_ty
    {|concept Convert<a, b> { convert : fn(a) -> b; } in
tfun a b where Convert<a, b> => fun (x : a) => Convert<a, b>.convert(x)|}
    "forall a b where Convert<a, b>. fn(a) -> b"

let test_polymorphic_member () =
  (* a concept member may itself be polymorphic *)
  check_ty
    {|concept Pick<t> { pick : forall a. fn(a, a, t) -> a; } in
model Pick<bool> { pick = tfun a => fun (x : a, y : a, b : bool) => if b then x else y; } in
Pick<bool>.pick[int](1, 2, true)|}
    "int"

let test_model_member_uses_earlier_models () =
  (* a model body may use models already in scope *)
  check_ty
    (monoid
   ^ {|model Semigroup<int> { binary_op = iadd; } in
model Semigroup<list int> {
  binary_op = fun (a : list int, b : list int) => append[int](a, b);
} in
model Monoid<list int> { identity_elt = nil[int]; } in
Monoid<list int>.identity_elt|})
    "list int"

(* ---------------------------------------------------------------- *)
(* Negative typing                                                   *)

let test_where_unsatisfied () =
  check_fails
    (monoid ^ "(tfun t where Monoid<t> => fun (x : t) => x)[int]")
    Fg_util.Diag.Resolve "no model of Monoid<int>"

let test_same_type_unsatisfied () =
  check_fails "(tfun a b where a == b => fun (x : a) => x)[int, bool]"
    Fg_util.Diag.Typecheck "same-type constraint not satisfied"

let test_member_without_model () =
  check_fails (monoid ^ "Semigroup<int>.binary_op") Fg_util.Diag.Resolve
    "no model of Semigroup<int>"

let test_unknown_concept () =
  check_fails "tfun t where Nope<t> => 1" Fg_util.Diag.Wf "unknown concept";
  check_fails "model Nope<int> { } in 0" Fg_util.Diag.Wf "unknown concept";
  check_fails "Nope<int>.x" Fg_util.Diag.Wf "unknown concept"

let test_concept_arity () =
  check_fails
    {|concept Convert<a, b> { convert : fn(a) -> b; } in
tfun t where Convert<t> => 1|}
    Fg_util.Diag.Wf "expects 2 type argument";
  check_fails
    (monoid ^ "model Semigroup<int, bool> { binary_op = iadd; } in 0")
    Fg_util.Diag.Wf "expects 1 type argument"

let test_duplicate_model_members () =
  check_fails
    (monoid
   ^ "model Semigroup<int> { binary_op = iadd; binary_op = imult; } in 0")
    Fg_util.Diag.Wf "duplicate member definition"

let test_assoc_extra_assignment () =
  check_fails
    (monoid ^ "model Semigroup<int> { types bogus = int; binary_op = iadd; } in 0")
    Fg_util.Diag.Wf "no associated type"

let test_same_requirement_violated () =
  check_fails
    (Corpus.iterator_concept
   ^ {|concept IntIterator<i> { refines Iterator<i>; same Iterator<i>.elt == int; } in
model Iterator<list bool> {
  types elt = bool;
  next = fun (ls : list bool) => cdr[bool](ls);
  curr = fun (ls : list bool) => car[bool](ls);
  at_end = fun (ls : list bool) => null[bool](ls);
} in
model IntIterator<list bool> { } in 0|})
    Fg_util.Diag.Typecheck "same-type requirement"

let test_tyvar_shadowing_rejected () =
  check_fails "tfun t => tfun t => 1" Fg_util.Diag.Wf "shadows";
  check_fails "tfun t => type t = int in 1" Fg_util.Diag.Wf "shadows"

let test_argument_mismatch () =
  check_fails "(fun (x : int) => x)(true)" Fg_util.Diag.Typecheck
    "expected int but got bool"

let test_fix_annotation_checked () =
  check_fails "fix (f : fn(int) -> int) => 3" Fg_util.Diag.Typecheck
    "fix body"

let test_concept_param_escape () =
  (* member type mentioning an unbound variable *)
  check_fails "concept C<t> { bad : fn(u) -> t; } in 0" Fg_util.Diag.Wf
    "unbound type variable 'u'"

let test_refinement_cycle_rejected () =
  (* direct self-refinement is caught; mutual recursion is impossible
     because a concept can only refine earlier (lexically visible)
     concepts *)
  check_fails "concept C<t> { refines C<t>; } in 0" Fg_util.Diag.Wf
    "unknown concept"

(* ---------------------------------------------------------------- *)
(* Scoping fine points                                               *)

let test_model_scope_bounded () =
  check_fails
    (monoid
   ^ {|let g = model Semigroup<int> { binary_op = iadd; } in 1 in
Semigroup<int>.binary_op|})
    Fg_util.Diag.Resolve "no model of Semigroup<int>"

let test_inner_model_wins () =
  (* shadowing: typechecks, and translation binds the inner dict *)
  let src =
    monoid
    ^ {|model Semigroup<int> { binary_op = iadd; } in
model Semigroup<int> { binary_op = imult; } in
Semigroup<int>.binary_op(2, 3)|}
  in
  let out = Session.run (session ()) src in
  Alcotest.(check string) "inner model used" "6"
    (Interp.flat_to_string out.value)

let test_proxy_models_inside_generic () =
  (* inside the generic, the where clause acts as a model declaration:
     member access on the type parameter typechecks *)
  check_ty
    (monoid ^ "tfun t where Monoid<t> => Monoid<t>.identity_elt")
    "forall t where Monoid<t>. t"

let test_refined_proxy_inside_generic () =
  (* requiring Monoid also provides Semigroup (refinement proxy) *)
  check_ty
    (monoid ^ "tfun t where Monoid<t> => Semigroup<t>.binary_op")
    "forall t where Monoid<t>. fn(t, t) -> t"

let suite =
  [
    Alcotest.test_case "System F fragment" `Quick test_plain_systemf_fragment;
    Alcotest.test_case "generic function type" `Quick
      test_generic_function_type;
    Alcotest.test_case "member access types" `Quick test_member_access_type;
    Alcotest.test_case "instantiation type" `Quick test_instantiation_type;
    Alcotest.test_case "assoc in result type resolves" `Quick
      test_assoc_in_result_type;
    Alcotest.test_case "assoc opaque inside generic" `Quick
      test_assoc_opaque_inside;
    Alcotest.test_case "same-type cast" `Quick test_same_type_cast;
    Alcotest.test_case "type alias equality" `Quick test_alias_equality;
    Alcotest.test_case "alias substituted on exit" `Quick
      test_alias_result_substituted;
    Alcotest.test_case "concept shadowing" `Quick test_concept_shadowing;
    Alcotest.test_case "multi-parameter where" `Quick test_multi_param_where;
    Alcotest.test_case "polymorphic member" `Quick test_polymorphic_member;
    Alcotest.test_case "model bodies use earlier models" `Quick
      test_model_member_uses_earlier_models;
    Alcotest.test_case "unsatisfied requirement" `Quick test_where_unsatisfied;
    Alcotest.test_case "unsatisfied same-type" `Quick
      test_same_type_unsatisfied;
    Alcotest.test_case "member needs model" `Quick test_member_without_model;
    Alcotest.test_case "unknown concept" `Quick test_unknown_concept;
    Alcotest.test_case "concept arity" `Quick test_concept_arity;
    Alcotest.test_case "duplicate model member" `Quick
      test_duplicate_model_members;
    Alcotest.test_case "bogus assoc assignment" `Quick
      test_assoc_extra_assignment;
    Alcotest.test_case "same requirement violated" `Quick
      test_same_requirement_violated;
    Alcotest.test_case "tyvar shadowing rejected" `Quick
      test_tyvar_shadowing_rejected;
    Alcotest.test_case "argument mismatch" `Quick test_argument_mismatch;
    Alcotest.test_case "fix annotation" `Quick test_fix_annotation_checked;
    Alcotest.test_case "unbound var in member type" `Quick
      test_concept_param_escape;
    Alcotest.test_case "self refinement" `Quick test_refinement_cycle_rejected;
    Alcotest.test_case "model scope is bounded" `Quick test_model_scope_bounded;
    Alcotest.test_case "inner model shadows" `Quick test_inner_model_wins;
    Alcotest.test_case "proxy models in generics" `Quick
      test_proxy_models_inside_generic;
    Alcotest.test_case "refinement proxies in generics" `Quick
      test_refined_proxy_inside_generic;
  ]
