(* A tour of the Section 6 extensions.

   Run with:  dune exec examples/extensions_tour.exe

   The paper's conclusion lists language features "important for generic
   programming" that FG omits for space; this library implements three
   of them, and this example exercises each:

   1. Parameterized models ("equivalent to parameterized instances in
      Haskell"): one declaration makes `list t` a model of Eq for EVERY
      t that models Eq — with recursive dictionary construction.
   2. Implicit instantiation (in the decidable restriction the paper
      points to): `accumulate(ls)` infers `[int]` from the argument.
   3. Defaults for concept members ("implementing a rich interface in
      terms of a few functions"): models of Ord supply `less` and get
      `leq`, `min2`, `max2` for free. *)

module C = Fg_core

let banner s = Fmt.pr "@.=== %s ===@." s

(* One session for the whole tour: the prelude is checked once here and
   reused by every [show] below. *)
let session =
  C.Session.of_config C.Session.Config.(with_standard_prelude default)

let show name body =
  let out = C.Session.run ~file:name session body in
  Fmt.pr "%-52s = %a : %a@." body C.Interp.pp_flat out.value C.Pretty.pp_ty
    out.fg_ty

let l = C.Prelude.int_list

let () =
  banner "1. Parameterized models: Eq/Ord/Monoid/Iterator at list t";

  (* equality at nested list types, through one declaration *)
  show "eq_list" (Printf.sprintf "Eq<list int>.eq(%s, %s)" (l [ 1; 2 ]) (l [ 1; 2 ]));
  show "eq_nested"
    (Printf.sprintf
       "Eq<list (list int)>.eq(cons[list int](%s, nil[list int]), \
        cons[list int](%s, nil[list int]))"
       (l [ 1 ]) (l [ 2 ]));

  (* lexicographic order, lists as monoid (concatenation) *)
  show "ord_list" (Printf.sprintf "Ord<list int>.less(%s, %s)" (l [ 1; 2 ]) (l [ 1; 3 ]));
  show "concat"
    (Printf.sprintf
       "accumulate[list int](cons[list int](%s, cons[list int](%s, nil[list int])))"
       (l [ 1 ]) (l [ 2; 3 ]));

  (* the translation: a fix-bound polymorphic dictionary function *)
  let f =
    C.Check.translate
      (C.Parser.exp_of_string
         {|concept Eq<t> { eq : fn(t, t) -> bool; } in
model Eq<int> { eq = ieq; } in
model <t> where Eq<t> => Eq<list t> {
  eq = fun (a : list t, b : list t) => true;
} in
Eq<list (list int)>.eq(nil[list int], nil[list int])|})
  in
  Fmt.pr "@.translation of a nested instance (note Eq_n[...](...) chains):@.";
  Fmt.pr "%a@." Fg_systemf.Pretty.pp_exp f;

  banner "2. Implicit instantiation: type arguments are inferred";
  show "accumulate" (Printf.sprintf "accumulate(%s)" (l [ 1; 2; 3; 4 ]));
  show "merge"
    (Printf.sprintf "merge(%s, %s, nil[int])" (l [ 1; 3 ]) (l [ 2; 4 ]));
  show "count-lists"
    (Printf.sprintf
       "count(cons[list int](%s, cons[list int](%s, nil[list int])), %s)"
       (l [ 7 ]) (l [ 7 ]) (l [ 7 ]));

  banner "3. Member defaults: rich interfaces from few operations";
  (* int models Ord with just `less`; leq/min2/max2 are defaults *)
  show "leq" "Ord<int>.leq(3, 3)";
  show "min2/max2" "(Ord<int>.min2(8, 3), Ord<int>.max2(8, 3))";
  (* and so do lists, through the parameterized Ord model *)
  show "min2 lists"
    (Printf.sprintf "Ord<list int>.min2(%s, %s)" (l [ 2; 1 ]) (l [ 1; 9 ]));
  (* neq is Eq's default, overridable per model *)
  show "neq default" "Eq<int>.neq(1, 2)";

  Fmt.pr
    "@.All of the above went through the full pipeline: type checked,@.\
     translated to System F, theorem-verified, and evaluated both by the@.\
     direct interpreter and via the translation (results agreed).@."
