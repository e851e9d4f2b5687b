(* Tests for nested requirements (Section 6: "concepts often include
   requirements on associated types", e.g. a container's associated
   iterator must model Iterator).  A `require C<σ̄>;` item behaves like
   a refinement for proxy models and dictionary layout, but contributes
   no member names. *)

open Fg_core

let session () = Session.of_config Session.Config.default

let check src expected =
  match Session.run_result ~file:"requires" (session ()) src with
  | Ok out ->
      Alcotest.(check string) src expected (Interp.flat_to_string out.value)
  | Error d -> Alcotest.failf "%s: %s" src (Fg_util.Diag.to_string d)

let check_fails src phase fragment =
  match Session.run_result ~file:"requires" (session ()) src with
  | Ok out ->
      Alcotest.failf "%s: expected failure, got %s" src
        (Interp.flat_to_string out.value)
  | Error d ->
      if d.phase <> phase then
        Alcotest.failf "%s: wrong phase %s" src (Fg_util.Diag.to_string d);
      if not (Astring_contains.contains ~needle:fragment d.message) then
        Alcotest.failf "%s: wrong message %s" src d.message

let container_stack =
  {|concept Iterator<i> {
  types elt;
  next : fn(i) -> i; curr : fn(i) -> elt; at_end : fn(i) -> bool;
} in
concept Container<c> {
  types iter;
  require Iterator<iter>;
  begin : fn(c) -> iter;
} in
model Iterator<list int> {
  types elt = int;
  next = fun (ls : list int) => cdr[int](ls);
  curr = fun (ls : list int) => car[int](ls);
  at_end = fun (ls : list int) => null[int](ls);
} in
model Container<list int> {
  types iter = list int;
  begin = fun (ls : list int) => ls;
} in
|}

let test_requirement_implied () =
  (* the where clause states ONLY Container<c>; the body may still use
     Iterator on the container's iterator type *)
  check
    (container_stack
   ^ {|let first =
  tfun c where Container<c> =>
    fun (xs : c) => Iterator<Container<c>.iter>.curr(Container<c>.begin(xs))
in
first[list int](cons[int](9, cons[int](1, nil[int])))|})
    "9"

let test_requires_in_generic_loop () =
  check
    (container_stack
   ^ {|let len =
  tfun c where Container<c> =>
    fun (xs : c) =>
      (fix (go : fn(Container<c>.iter) -> int) =>
        fun (it : Container<c>.iter) =>
          if Iterator<Container<c>.iter>.at_end(it) then 0
          else 1 + go(Iterator<Container<c>.iter>.next(it)))
      (Container<c>.begin(xs))
in
len[list int](cons[int](1, cons[int](2, cons[int](3, nil[int]))))|})
    "3"

let test_model_needs_required_instance () =
  (* declaring a Container model without an Iterator model in scope *)
  check_fails
    {|concept Iterator<i> { types elt; curr : fn(i) -> elt; } in
concept Container<c> { types iter; require Iterator<iter>; begin : fn(c) -> iter; } in
model Container<list int> {
  types iter = list int;
  begin = fun (ls : list int) => ls;
} in 0|}
    Fg_util.Diag.Resolve "requires Iterator<list int>"

let test_no_member_leak () =
  (* Container does NOT expose Iterator's members as its own *)
  check_fails
    (container_stack ^ "Container<list int>.curr(nil[int])")
    Fg_util.Diag.Typecheck "no member 'curr'"

let test_dictionary_layout () =
  (* the Container dictionary embeds the Iterator dictionary first:
     (iter_dict, begin); member access to `begin` projects index 1 *)
  let f =
    Check.translate
      (Parser.exp_of_string
         (container_stack ^ "Container<list int>.begin(nil[int])"))
  in
  let s = Fg_systemf.Pretty.exp_to_flat_string f in
  Alcotest.(check bool) "begin at index 1" true
    (Astring_contains.contains ~needle:" 1(nil[int])" s)

let test_prelude_sum_container () =
  (* the prelude's sum_container now states only Container + Monoid *)
  check
    (Prelude.wrap
       (Printf.sprintf "sum_container(%s)" (Prelude.int_list [ 5; 6; 7 ])))
    "18";
  (* and works at every list type through the parameterized models *)
  check
    (Prelude.wrap
       (Printf.sprintf
          "sum_container[list (list int)](cons[list int](%s, cons[list int](%s, nil[list int])))"
          (Prelude.int_list [ 1 ])
          (Prelude.int_list [ 2; 3 ])))
    "[1, 2, 3]"

let test_require_with_same_type_pin () =
  (* a nested requirement combined with a same-type requirement *)
  check
    (container_stack
   ^ {|concept IntContainer<c> {
  refines Container<c>;
  same Iterator<Container<c>.iter>.elt == int;
} in
model IntContainer<list int> { } in
let total =
  tfun c where IntContainer<c> =>
    fun (xs : c) =>
      (fix (go : fn(Container<c>.iter) -> int) =>
        fun (it : Container<c>.iter) =>
          if Iterator<Container<c>.iter>.at_end(it) then 0
          else Iterator<Container<c>.iter>.curr(it) + go(Iterator<Container<c>.iter>.next(it)))
      (Container<c>.begin(xs))
in
total[list int](cons[int](10, cons[int](20, nil[int])))|})
    "30"

let suite =
  [
    Alcotest.test_case "requirement implied by concept" `Quick
      test_requirement_implied;
    Alcotest.test_case "iteration through the required instance" `Quick
      test_requires_in_generic_loop;
    Alcotest.test_case "model needs the required instance" `Quick
      test_model_needs_required_instance;
    Alcotest.test_case "no member-name leak" `Quick test_no_member_leak;
    Alcotest.test_case "dictionary layout" `Quick test_dictionary_layout;
    Alcotest.test_case "prelude sum_container simplified" `Quick
      test_prelude_sum_container;
    Alcotest.test_case "require + same-type pin" `Quick
      test_require_with_same_type_pin;
  ]
