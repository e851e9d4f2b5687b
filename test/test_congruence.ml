(* Tests for the congruence closure: unit tests on the classic
   Nelson–Oppen behaviours, plus qcheck properties against a
   brute-force reference closure. *)

module Term = Fg_congruence.Term
module Cc = Fg_congruence.Closure

let a = Term.const "a"
let b = Term.const "b"
let c = Term.const "c"
let f x = Term.make "f" [ x ]
let g x y = Term.make "g" [ x; y ]

let test_reflexive () =
  let cc = Cc.create () in
  Alcotest.(check bool) "a = a" true (Cc.equiv cc a a);
  Alcotest.(check bool) "f(a) = f(a)" true (Cc.equiv cc (f a) (f a));
  Alcotest.(check bool) "a != b" false (Cc.equiv cc a b)

let test_symmetric_transitive () =
  let cc = Cc.create () in
  Cc.merge cc a b;
  Cc.merge cc b c;
  Alcotest.(check bool) "a = c" true (Cc.equiv cc a c);
  Alcotest.(check bool) "c = a" true (Cc.equiv cc c a)

let test_congruence_up () =
  let cc = Cc.create () in
  (* interning the applications first, then merging the arguments,
     must propagate upward *)
  ignore (Cc.add cc (f a));
  ignore (Cc.add cc (f b));
  Alcotest.(check bool) "f(a) != f(b) yet" false (Cc.equiv cc (f a) (f b));
  Cc.merge cc a b;
  Alcotest.(check bool) "f(a) = f(b)" true (Cc.equiv cc (f a) (f b));
  Alcotest.(check bool) "g(a,c) = g(b,c)" true (Cc.equiv cc (g a c) (g b c))

let test_congruence_nested () =
  let cc = Cc.create () in
  Cc.merge cc a b;
  (* deep congruence: f(f(f(a))) = f(f(f(b))) *)
  Alcotest.(check bool) "deep" true (Cc.equiv cc (f (f (f a))) (f (f (f b))))

let test_no_confusion () =
  let cc = Cc.create () in
  Cc.merge cc (f a) (f b);
  (* f(a) = f(b) does NOT imply a = b (no injectivity) *)
  Alcotest.(check bool) "args not merged" false (Cc.equiv cc a b);
  (* and distinct symbols stay distinct *)
  Alcotest.(check bool) "different symbol" false
    (Cc.equiv cc (f a) (Term.make "h" [ a ]))

let test_classic_nelson_oppen () =
  (* The classic example: f(f(f(a))) = a and f(f(f(f(f(a))))) = a
     imply f(a) = a. *)
  let cc = Cc.create () in
  let rec fn n x = if n = 0 then x else fn (n - 1) (f x) in
  Cc.merge cc (fn 3 a) a;
  Cc.merge cc (fn 5 a) a;
  Alcotest.(check bool) "f(a) = a" true (Cc.equiv cc (f a) a)

let test_arity_distinguishes () =
  let cc = Cc.create () in
  (* same symbol name at different arities are different symbols *)
  let f1 = Term.make "f" [ a ] in
  let f2 = Term.make "f" [ a; a ] in
  Alcotest.(check bool) "f/1 != f/2" false (Cc.equiv cc f1 f2)

let test_repr_prefers_smaller () =
  let cc = Cc.create () in
  Cc.merge cc (f (f a)) b;
  (* default preference: smallest term represents the class *)
  Alcotest.(check bool) "repr is b" true
    (Term.equal (Cc.repr cc (f (f a))) b)

let test_repr_rebuilds_children () =
  let cc = Cc.create () in
  Cc.merge cc a b;
  (* repr of g(f(b), c): b's class best is a or b by Term.compare —
     both size 1; compare "a" < "b" so a wins *)
  let r = Cc.repr cc (g (f b) c) in
  Alcotest.(check string) "canonical rendering" "g(f(a), c)"
    (Term.to_string r)

let test_repr_cycle_detected () =
  let cc = Cc.create () in
  (* x = f(x): no finite representative; the custom prefer function
     insists on keeping f(x), forcing the cycle *)
  let prefer x y = if Term.depth x >= Term.depth y then x else y in
  let cc2 = Cc.create () in
  Cc.merge ~prefer cc2 a (f a);
  (match Fg_util.Diag.protect (fun () -> Cc.repr ~prefer ~max_depth:50 cc2 a) with
  | Error d ->
      Alcotest.(check bool) "cycle reported" true
        (d.phase = Fg_util.Diag.Internal)
  | Ok r ->
      (* with depth-preferring selection this must have failed; if the
         implementation returns something it must at least be in the
         class *)
      Alcotest.(check bool) "still equal" true (Cc.equiv ~prefer cc2 r a));
  ignore cc

let test_generation_counter () =
  let cc = Cc.create () in
  let g0 = Cc.generation cc in
  ignore (Cc.add cc a);
  Alcotest.(check int) "adding does not bump generation" g0 (Cc.generation cc);
  Cc.merge cc a b;
  Alcotest.(check bool) "merge bumps" true (Cc.generation cc > g0);
  let g1 = Cc.generation cc in
  Cc.merge cc a b;
  Alcotest.(check int) "redundant merge does not bump" g1 (Cc.generation cc)

let test_classes () =
  let cc = Cc.create () in
  Cc.merge cc a b;
  ignore (Cc.add cc c);
  Alcotest.(check int) "two classes" 2 (Cc.count_classes cc)

(* ---------------------------------------------------------------- *)
(* Properties                                                        *)

(* Random ground terms over a small signature. *)
let term_gen : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 1 then oneofl [ a; b; c ]
      else
        frequency
          [
            (2, oneofl [ a; b; c ]);
            (2, map f (self (n / 2)));
            (1, map2 g (self (n / 2)) (self (n / 2)));
          ])

let term_arb =
  QCheck.make ~print:Term.to_string term_gen

(* Brute-force reference: closure by fixpoint over all subterm pairs. *)
let reference_equiv (eqs : (Term.t * Term.t) list) (x : Term.t) (y : Term.t) :
    bool =
  let terms = ref [] in
  let rec collect t =
    if not (List.exists (Term.equal t) !terms) then begin
      terms := t :: !terms;
      List.iter collect t.Term.args
    end
  in
  List.iter (fun (l, r) -> collect l; collect r) eqs;
  collect x;
  collect y;
  let ts = Array.of_list !terms in
  let n = Array.length ts in
  let eq = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    eq.(i).(i) <- true
  done;
  let idx t =
    let rec go i = if Term.equal ts.(i) t then i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (l, r) ->
      let i = idx l and j = idx r in
      eq.(i).(j) <- true;
      eq.(j).(i) <- true)
    eqs;
  let changed = ref true in
  while !changed do
    changed := false;
    (* transitivity *)
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if eq.(i).(j) then
          for k = 0 to n - 1 do
            if eq.(j).(k) && not (eq.(i).(k)) then begin
              eq.(i).(k) <- true;
              changed := true
            end
          done
      done
    done;
    (* congruence *)
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if not eq.(i).(j) then begin
          let ti = ts.(i) and tj = ts.(j) in
          if
            String.equal ti.Term.sym tj.Term.sym
            && List.length ti.Term.args = List.length tj.Term.args
            && List.for_all2 (fun x y -> eq.(idx x).(idx y)) ti.Term.args
                 tj.Term.args
          then begin
            eq.(i).(j) <- true;
            changed := true
          end
        end
      done
    done
  done;
  eq.(idx x).(idx y)

let prop_matches_reference =
  QCheck.Test.make ~name:"closure matches brute-force reference" ~count:100
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_bound 4) (pair term_arb term_arb))
        (pair term_arb term_arb))
    (fun (eqs, (x, y)) ->
      let cc = Cc.create () in
      List.iter (fun (l, r) -> Cc.merge cc l r) eqs;
      Cc.equiv cc x y = reference_equiv eqs x y)

let prop_repr_in_class =
  QCheck.Test.make ~name:"repr is equivalent to its argument" ~count:200
    QCheck.(
      pair (list_of_size (QCheck.Gen.int_bound 4) (pair term_arb term_arb))
        term_arb)
    (fun (eqs, x) ->
      let cc = Cc.create () in
      List.iter (fun (l, r) -> Cc.merge cc l r) eqs;
      (* guard against f(x)=x style cycles: skip if repr fails *)
      match Fg_util.Diag.protect (fun () -> Cc.repr ~max_depth:100 cc x) with
      | Ok r -> Cc.equiv cc r x
      | Error _ -> QCheck.assume_fail ())

let prop_repr_canonical =
  QCheck.Test.make ~name:"equivalent terms share a representative" ~count:200
    QCheck.(
      pair (list_of_size (QCheck.Gen.int_bound 4) (pair term_arb term_arb))
        (pair term_arb term_arb))
    (fun (eqs, (x, y)) ->
      let cc = Cc.create () in
      List.iter (fun (l, r) -> Cc.merge cc l r) eqs;
      match
        Fg_util.Diag.protect (fun () ->
            (Cc.repr ~max_depth:100 cc x, Cc.repr ~max_depth:100 cc y))
      with
      | Ok (rx, ry) ->
          if Cc.equiv cc x y then Term.equal rx ry else true
      | Error _ -> QCheck.assume_fail ())

let suite =
  [
    Alcotest.test_case "reflexivity" `Quick test_reflexive;
    Alcotest.test_case "symmetry/transitivity" `Quick test_symmetric_transitive;
    Alcotest.test_case "upward congruence" `Quick test_congruence_up;
    Alcotest.test_case "nested congruence" `Quick test_congruence_nested;
    Alcotest.test_case "no confusion" `Quick test_no_confusion;
    Alcotest.test_case "Nelson-Oppen f^3/f^5" `Quick test_classic_nelson_oppen;
    Alcotest.test_case "arity distinguishes" `Quick test_arity_distinguishes;
    Alcotest.test_case "repr prefers smaller" `Quick test_repr_prefers_smaller;
    Alcotest.test_case "repr rebuilds children" `Quick test_repr_rebuilds_children;
    Alcotest.test_case "repr cycle detected" `Quick test_repr_cycle_detected;
    Alcotest.test_case "generation counter" `Quick test_generation_counter;
    Alcotest.test_case "class counting" `Quick test_classes;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    QCheck_alcotest.to_alcotest prop_repr_in_class;
    QCheck_alcotest.to_alcotest prop_repr_canonical;
  ]
