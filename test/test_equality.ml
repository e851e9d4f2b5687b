(* Tests for FG type equality: the congruence over same-type
   assumptions (paper Section 5.1) and representative selection
   (Section 5.2). *)

open Fg_core
module A = Ast

let ty = Parser.ty_of_string

let eq_of assumptions =
  List.fold_left
    (fun eq (a, b) -> Equality.assume eq (ty a) (ty b))
    (Equality.empty ()) assumptions

let check_equal eq a b expected =
  Alcotest.(check bool)
    (Printf.sprintf "%s = %s" a b)
    expected
    (Equality.equal eq (ty a) (ty b))

let check_repr eq a expected =
  Alcotest.(check string)
    (Printf.sprintf "repr %s" a)
    expected
    (Pretty.ty_to_string (Equality.repr eq (ty a)))

let test_syntactic () =
  let eq = Equality.empty () in
  check_equal eq "int" "int" true;
  check_equal eq "int" "bool" false;
  check_equal eq "list int" "list int" true;
  check_equal eq "fn(int) -> bool" "fn(int) -> bool" true;
  check_equal eq "fn(int) -> bool" "fn(bool) -> bool" false;
  check_equal eq "a" "a" true;
  check_equal eq "a" "b" false;
  check_equal eq "C<a>.s" "C<a>.s" true;
  check_equal eq "C<a>.s" "C<b>.s" false;
  check_equal eq "C<a>.s" "C<a>.t" false;
  check_equal eq "C<a>.s" "D<a>.s" false

let test_assumed () =
  let eq = eq_of [ ("a", "int") ] in
  check_equal eq "a" "int" true;
  check_equal eq "int" "a" true;
  check_equal eq "a" "bool" false;
  (* congruence lifts through constructors *)
  check_equal eq "list a" "list int" true;
  check_equal eq "fn(a, a) -> a" "fn(int, int) -> int" true;
  check_equal eq "a * bool" "int * bool" true;
  check_equal eq "C<a>.s" "C<int>.s" true

let test_transitive () =
  let eq = eq_of [ ("a", "b"); ("b", "c"); ("c", "int") ] in
  check_equal eq "a" "int" true;
  check_equal eq "a" "c" true;
  check_equal eq "list (list a)" "list (list int)" true

let test_projection_chains () =
  (* the iterator situation: elt projections pinned by models *)
  let eq =
    eq_of
      [
        ("Iterator<list int>.elt", "int");
        ("Iterator<i1>.elt", "Iterator<i2>.elt");
      ]
  in
  check_equal eq "Iterator<list int>.elt" "int" true;
  check_equal eq "Iterator<i1>.elt" "Iterator<i2>.elt" true;
  check_equal eq "fn(Iterator<i1>.elt) -> bool" "fn(Iterator<i2>.elt) -> bool"
    true;
  check_equal eq "Iterator<i1>.elt" "int" false

let test_congruence_through_args () =
  (* i1 = i2 must make Iterator<i1>.elt = Iterator<i2>.elt by
     congruence, without an explicit assumption *)
  let eq = eq_of [ ("i1", "i2") ] in
  check_equal eq "Iterator<i1>.elt" "Iterator<i2>.elt" true

let test_repr_prefers_ground () =
  let eq = eq_of [ ("a", "int") ] in
  check_repr eq "a" "int";
  check_repr eq "list a" "list int";
  check_repr eq "fn(a) -> a" "fn(int) -> int"

let test_repr_prefers_earliest_var () =
  (* paper Section 5.2: elt1 is chosen as the representative of the
     class {elt1, elt2}; our rule is earliest-interned variable *)
  let eq = eq_of [ ("elt1", "C<i1>.s"); ("elt2", "C<i2>.s"); ("elt1", "elt2") ] in
  check_repr eq "elt2" "elt1";
  check_repr eq "C<i2>.s" "elt1";
  check_repr eq "C<i1>.s" "elt1"

let test_repr_var_over_projection () =
  let eq = eq_of [ ("e", "C<i>.s") ] in
  check_repr eq "C<i>.s" "e"

let test_forall_alpha_opaque () =
  (* foralls compare up to alpha; equalities do not propagate inside
     (documented limitation) *)
  let eq = Equality.empty () in
  check_equal eq "forall a. fn(a) -> a" "forall b. fn(b) -> b" true;
  check_equal eq "forall a. fn(a) -> a" "forall a b. fn(a) -> a" false;
  let eq2 = eq_of [ ("t", "int") ] in
  check_equal eq2 "forall a. fn(a) -> t" "forall a. fn(a) -> int" false

let test_forall_with_constraints () =
  let eq = Equality.empty () in
  check_equal eq "forall t where Monoid<t>. t" "forall u where Monoid<u>. u"
    true;
  check_equal eq "forall t where Monoid<t>. t" "forall t where Eq<t>. t" false;
  check_equal eq "forall t where Monoid<t>. t" "forall t. t" false

let test_persistence () =
  (* assume returns a NEW context; the original is unchanged *)
  let eq0 = Equality.empty () in
  let eq1 = Equality.assume eq0 (ty "a") (ty "int") in
  check_equal eq1 "a" "int" true;
  check_equal eq0 "a" "int" false;
  (* extending further *)
  let eq2 = Equality.assume eq1 (ty "b") (ty "a") in
  check_equal eq2 "b" "int" true;
  check_equal eq1 "b" "int" false

let test_assumptions_listing () =
  let eq = eq_of [ ("a", "int"); ("b", "bool") ] in
  Alcotest.(check int) "two assumptions" 2
    (List.length (Equality.assumptions eq))

let test_tuple_arity () =
  let eq = Equality.empty () in
  check_equal eq "tuple(int)" "int" false;
  check_equal eq "tuple()" "unit" false;
  check_equal eq "int * bool" "int * bool" true

let test_class_count () =
  let eq = eq_of [ ("a", "b"); ("c", "d") ] in
  (* interned: a b c d -> 2 classes *)
  Alcotest.(check int) "classes" 2 (Equality.class_count eq)

(* Properties: equality is an equivalence relation and a congruence. *)

let small_ty_gen : A.ty QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 1 then
        oneofl
          [ A.TBase A.TInt; A.TBase A.TBool; A.TVar "a"; A.TVar "b";
            A.TVar "c" ]
      else
        frequency
          [
            (3, oneofl [ A.TBase A.TInt; A.TVar "a"; A.TVar "b" ]);
            (2, map (fun t -> A.TList t) (self (n / 2)));
            (1, map2 (fun x y -> A.TArrow ([ x ], y)) (self (n / 2)) (self (n / 2)));
            (1, map (fun t -> A.TAssoc ("C", [ t ], "s")) (self (n / 2)));
          ])

let ty_arb = QCheck.make ~print:Pretty.ty_to_string small_ty_gen

let eqs_arb =
  QCheck.(list_of_size (QCheck.Gen.int_bound 4) (pair ty_arb ty_arb))

let build eqs = List.fold_left (fun e (a, b) -> Equality.assume e a b) (Equality.empty ()) eqs

let prop_reflexive =
  QCheck.Test.make ~name:"equality is reflexive" ~count:200
    QCheck.(pair eqs_arb ty_arb)
    (fun (eqs, t) -> Equality.equal (build eqs) t t)

let prop_symmetric =
  QCheck.Test.make ~name:"equality is symmetric" ~count:200
    QCheck.(pair eqs_arb (pair ty_arb ty_arb))
    (fun (eqs, (a, b)) ->
      let eq = build eqs in
      Equality.equal eq a b = Equality.equal eq b a)

let prop_assumed_holds =
  QCheck.Test.make ~name:"every assumption holds" ~count:200 eqs_arb
    (fun eqs ->
      let eq = build eqs in
      List.for_all (fun (a, b) -> Equality.equal eq a b) eqs)

let prop_congruence_list =
  QCheck.Test.make ~name:"a = b implies list a = list b" ~count:200
    QCheck.(pair eqs_arb (pair ty_arb ty_arb))
    (fun (eqs, (a, b)) ->
      let eq = build eqs in
      (not (Equality.equal eq a b))
      || Equality.equal eq (A.TList a) (A.TList b))

let prop_repr_idempotent =
  QCheck.Test.make ~name:"repr is idempotent" ~count:200
    QCheck.(pair eqs_arb ty_arb)
    (fun (eqs, t) ->
      let eq = build eqs in
      match
        Fg_util.Diag.protect (fun () ->
            let r = Equality.repr eq t in
            (r, Equality.repr eq r))
      with
      | Ok (r1, r2) -> A.ty_equal r1 r2
      | Error _ -> QCheck.assume_fail () (* cyclic assumption set *))

(* [repr_canonical]'s flag licenses the translation to skip asking for
   each subterm's representative: it may be set only when each subterm
   already is one, with no projection or [forall] in the type. *)
let test_repr_canonical () =
  let eq = eq_of [ ("a", "int") ] in
  let check t expected_repr expected_flag =
    let r, canonical = Equality.repr_canonical eq (ty t) in
    Alcotest.(check (pair string bool)) ("repr_canonical " ^ t)
      (expected_repr, expected_flag)
      (Pretty.ty_to_string r, canonical)
  in
  (* a's class is represented by int, so list a's subterm is not its
     own representative; once list int is interned it is *)
  check "list a" "list int" false;
  check "list int" "list int" true;
  check "list (list bool)" "list (list bool)" true;
  check "fn(b, int) -> b" "fn(b, int) -> b" true;
  check "list C<b>.s" "list C<b>.s" false;
  check "list (forall t. t)" "list (forall t. t)" false

let suite =
  [
    Alcotest.test_case "syntactic equality" `Quick test_syntactic;
    Alcotest.test_case "assumed equality" `Quick test_assumed;
    Alcotest.test_case "transitivity" `Quick test_transitive;
    Alcotest.test_case "projection chains" `Quick test_projection_chains;
    Alcotest.test_case "congruence through args" `Quick
      test_congruence_through_args;
    Alcotest.test_case "repr prefers ground" `Quick test_repr_prefers_ground;
    Alcotest.test_case "repr prefers earliest variable (elt1)" `Quick
      test_repr_prefers_earliest_var;
    Alcotest.test_case "repr: variable over projection" `Quick
      test_repr_var_over_projection;
    Alcotest.test_case "foralls are alpha-opaque" `Quick
      test_forall_alpha_opaque;
    Alcotest.test_case "foralls with constraints" `Quick
      test_forall_with_constraints;
    Alcotest.test_case "persistence" `Quick test_persistence;
    Alcotest.test_case "assumptions listing" `Quick test_assumptions_listing;
    Alcotest.test_case "tuple arities distinct" `Quick test_tuple_arity;
    Alcotest.test_case "class count" `Quick test_class_count;
    Alcotest.test_case "canonical representatives" `Quick
      test_repr_canonical;
    QCheck_alcotest.to_alcotest prop_reflexive;
    QCheck_alcotest.to_alcotest prop_symmetric;
    QCheck_alcotest.to_alcotest prop_assumed_holds;
    QCheck_alcotest.to_alcotest prop_congruence_list;
    QCheck_alcotest.to_alcotest prop_repr_idempotent;
  ]
