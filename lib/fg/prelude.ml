(** A standard library of concepts, models and generic algorithms,
    written in FG itself.

    The paper's motivation is the STL: generic algorithms specified
    against concepts (Iterator, LessThanComparable, Monoid, ...).  This
    module provides that library for our FG, as concrete-syntax
    fragments that compose by string concatenation — each fragment is a
    stack of [concept]/[model]/[let] declarations ending in [in], so
    [wrap body] produces a complete program.

    Everything here is checked by the test suite both directly (each
    algorithm has unit tests) and via the theorem harness. *)

(* ------------------------------------------------------------------ *)
(* Core algebraic concepts                                             *)

let concepts =
  {|// ----- equality and ordering -------------------------------------
concept Eq<t> {
  eq  : fn(t, t) -> bool;
  // default: inequality is the negation of equality
  neq : fn(t, t) -> bool = fun (a : t, b : t) => !Eq<t>.eq(a, b);
} in
concept Ord<t> {
  refines Eq<t>;
  less : fn(t, t) -> bool;
  // defaults: the remaining comparisons in terms of less and eq
  leq  : fn(t, t) -> bool = fun (a : t, b : t) => Ord<t>.less(a, b) || Eq<t>.eq(a, b);
  min2 : fn(t, t) -> t    = fun (a : t, b : t) => if Ord<t>.less(b, a) then b else a;
  max2 : fn(t, t) -> t    = fun (a : t, b : t) => if Ord<t>.less(a, b) then b else a;
} in
// ----- algebraic structure ---------------------------------------
concept Semigroup<t> {
  binary_op : fn(t, t) -> t;
} in
concept Monoid<t> {
  refines Semigroup<t>;
  identity_elt : t;
} in
concept Group<t> {
  refines Monoid<t>;
  inverse : fn(t) -> t;
} in
// ----- iteration (the paper's Section 5 concepts) ----------------
concept Iterator<i> {
  types elt;
  next : fn(i) -> i;
  curr : fn(i) -> elt;
  at_end : fn(i) -> bool;
} in
concept OutputIterator<o, e> {
  put : fn(o, e) -> o;
} in
// A container exposes an iterator type; the nested requirement
// (Section 6 extension) carries Iterator<iter> with it, so algorithms
// only need to state Container<c>.
concept Container<c> {
  types iter;
  require Iterator<iter>;
  begin : fn(c) -> iter;
} in
|}

(* ------------------------------------------------------------------ *)
(* Models for the base types                                           *)

let int_models =
  {|model Eq<int> { eq = ieq; } in
model Ord<int> { less = ilt; } in
model Semigroup<int> { binary_op = iadd; } in
model Monoid<int> { identity_elt = 0; } in
model Group<int> { inverse = ineg; } in
|}

let bool_models =
  {|model Eq<bool> { eq = beq; } in
|}

let list_int_models =
  {|model Iterator<list int> {
  types elt = int;
  next = fun (ls : list int) => cdr[int](ls);
  curr = fun (ls : list int) => car[int](ls);
  at_end = fun (ls : list int) => null[int](ls);
} in
model OutputIterator<list int, int> {
  put = fun (out : list int, x : int) => append[int](out, cons[int](x, nil[int]));
} in
model Container<list int> {
  types iter = list int;
  begin = fun (ls : list int) => ls;
} in
|}

(* ------------------------------------------------------------------ *)
(* Parameterized models: instances at [list t] for any suitable [t]
   (the Section 6 "parameterized models" extension, analogous to
   Haskell's [instance Eq a => Eq [a]])                                 *)

let list_parameterized_models =
  {|// structural equality on lists, given equality on the elements
model <t> where Eq<t> => Eq<list t> {
  eq = fix (go : fn(list t, list t) -> bool) =>
    fun (a : list t, b : list t) =>
      if null[t](a) then null[t](b)
      else if null[t](b) then false
      else Eq<t>.eq(car[t](a), car[t](b)) && go(cdr[t](a), cdr[t](b));
} in
// lexicographic order on lists, given order on the elements
model <t> where Ord<t> => Ord<list t> {
  less = fix (go : fn(list t, list t) -> bool) =>
    fun (a : list t, b : list t) =>
      if null[t](a) then !(null[t](b))
      else if null[t](b) then false
      else if Ord<t>.less(car[t](a), car[t](b)) then true
      else if Ord<t>.less(car[t](b), car[t](a)) then false
      else go(cdr[t](a), cdr[t](b));
} in
// lists form a monoid under append with the empty list as identity
model <t> Semigroup<list t> {
  binary_op = fun (a : list t, b : list t) => append[t](a, b);
} in
model <t> Monoid<list t> {
  identity_elt = nil[t];
} in
// every list is iterable, whatever its element type
model <t> Iterator<list t> {
  types elt = t;
  next = fun (ls : list t) => cdr[t](ls);
  curr = fun (ls : list t) => car[t](ls);
  at_end = fun (ls : list t) => null[t](ls);
} in
model <t> OutputIterator<list t, t> {
  put = fun (out : list t, x : t) => append[t](out, cons[t](x, nil[t]));
} in
model <t> Container<list t> {
  types iter = list t;
  begin = fun (ls : list t) => ls;
} in
|}

(* ------------------------------------------------------------------ *)
(* Generic algorithms over the concepts                                *)

let algorithms =
  {|// accumulate: Figure 5, over any Monoid
let accumulate =
  tfun t where Monoid<t> =>
    fix (accum : fn(list t) -> t) =>
      fun (ls : list t) =>
        if null[t](ls) then Monoid<t>.identity_elt
        else Monoid<t>.binary_op(car[t](ls), accum(cdr[t](ls)))
in
// accumulate_iter: Section 5, over any Iterator whose elements form a Monoid
let accumulate_iter =
  tfun i where Iterator<i>, Monoid<Iterator<i>.elt> =>
    fix (accum : fn(i) -> Iterator<i>.elt) =>
      fun (it : i) =>
        if Iterator<i>.at_end(it) then Monoid<Iterator<i>.elt>.identity_elt
        else Monoid<Iterator<i>.elt>.binary_op(Iterator<i>.curr(it),
                                               accum(Iterator<i>.next(it)))
in
// count: how many elements equal x
let count =
  tfun i where Iterator<i>, Eq<Iterator<i>.elt> =>
    fix (go : fn(i, Iterator<i>.elt) -> int) =>
      fun (it : i, x : Iterator<i>.elt) =>
        if Iterator<i>.at_end(it) then 0
        else if Eq<Iterator<i>.elt>.eq(Iterator<i>.curr(it), x)
        then 1 + go(Iterator<i>.next(it), x)
        else go(Iterator<i>.next(it), x)
in
// contains: is x among the elements
let contains =
  tfun i where Iterator<i>, Eq<Iterator<i>.elt> =>
    fix (go : fn(i, Iterator<i>.elt) -> bool) =>
      fun (it : i, x : Iterator<i>.elt) =>
        if Iterator<i>.at_end(it) then false
        else Eq<Iterator<i>.elt>.eq(Iterator<i>.curr(it), x)
             || go(Iterator<i>.next(it), x)
in
// copy: Section 5.2, from an iterator to an output iterator
let copy =
  tfun i o where Iterator<i>, OutputIterator<o, Iterator<i>.elt> =>
    fix (go : fn(i, o) -> o) =>
      fun (it : i, out : o) =>
        if Iterator<i>.at_end(it) then out
        else go(Iterator<i>.next(it),
                OutputIterator<o, Iterator<i>.elt>.put(out, Iterator<i>.curr(it)))
in
// min_element: smallest element of a non-empty range (Ord)
let min_element =
  tfun i where Iterator<i>, Ord<Iterator<i>.elt> =>
    fix (go : fn(i, Iterator<i>.elt) -> Iterator<i>.elt) =>
      fun (it : i, best : Iterator<i>.elt) =>
        if Iterator<i>.at_end(it) then best
        else if Ord<Iterator<i>.elt>.less(Iterator<i>.curr(it), best)
        then go(Iterator<i>.next(it), Iterator<i>.curr(it))
        else go(Iterator<i>.next(it), best)
in
// equal_ranges: element-wise equality of two ranges (same elt type)
let equal_ranges =
  tfun i1 i2 where
      Iterator<i1>, Iterator<i2>, Eq<Iterator<i1>.elt>,
      Iterator<i1>.elt == Iterator<i2>.elt =>
    fix (go : fn(i1, i2) -> bool) =>
      fun (xs : i1, ys : i2) =>
        if Iterator<i1>.at_end(xs) then Iterator<i2>.at_end(ys)
        else if Iterator<i2>.at_end(ys) then false
        else Eq<Iterator<i1>.elt>.eq(Iterator<i1>.curr(xs), Iterator<i2>.curr(ys))
             && go(Iterator<i1>.next(xs), Iterator<i2>.next(ys))
in
// merge: Section 5's motivating example for same-type constraints
let merge =
  tfun i1 i2 o where
      Iterator<i1>, Iterator<i2>,
      OutputIterator<o, Iterator<i1>.elt>,
      Ord<Iterator<i1>.elt>,
      Iterator<i1>.elt == Iterator<i2>.elt =>
    fix (go : fn(i1, i2, o) -> o) =>
      fun (xs : i1, ys : i2, out : o) =>
        if Iterator<i1>.at_end(xs) then
          (fix (drain : fn(i2, o) -> o) =>
            fun (rest : i2, acc : o) =>
              if Iterator<i2>.at_end(rest) then acc
              else drain(Iterator<i2>.next(rest),
                         OutputIterator<o, Iterator<i1>.elt>.put(acc, Iterator<i2>.curr(rest))))(ys, out)
        else if Iterator<i2>.at_end(ys) then
          (fix (drain : fn(i1, o) -> o) =>
            fun (rest : i1, acc : o) =>
              if Iterator<i1>.at_end(rest) then acc
              else drain(Iterator<i1>.next(rest),
                         OutputIterator<o, Iterator<i1>.elt>.put(acc, Iterator<i1>.curr(rest))))(xs, out)
        else if Ord<Iterator<i1>.elt>.less(Iterator<i1>.curr(xs), Iterator<i2>.curr(ys))
        then go(Iterator<i1>.next(xs), ys,
                OutputIterator<o, Iterator<i1>.elt>.put(out, Iterator<i1>.curr(xs)))
        else go(xs, Iterator<i2>.next(ys),
                OutputIterator<o, Iterator<i1>.elt>.put(out, Iterator<i2>.curr(ys)))
in
// power: x ** n via the Monoid (n >= 0); Group gives negative powers
let power =
  tfun t where Monoid<t> =>
    fix (go : fn(t, int) -> t) =>
      fun (x : t, n : int) =>
        if n == 0 then Monoid<t>.identity_elt
        else Semigroup<t>.binary_op(x, go(x, n - 1))
in
// insertion sort over any Ord — the STL flagship
let insert_sorted =
  tfun t where Ord<t> =>
    fix (go : fn(t, list t) -> list t) =>
      fun (x : t, ls : list t) =>
        if null[t](ls) then cons[t](x, nil[t])
        else if Ord<t>.leq(x, car[t](ls)) then cons[t](x, ls)
        else cons[t](car[t](ls), go(x, cdr[t](ls)))
in
let insertion_sort =
  tfun t where Ord<t> =>
    fix (go : fn(list t) -> list t) =>
      fun (ls : list t) =>
        if null[t](ls) then nil[t]
        else insert_sorted[t](car[t](ls), go(cdr[t](ls)))
in
// is the range sorted (non-decreasing)?
let is_sorted =
  tfun t where Ord<t> =>
    fix (go : fn(list t) -> bool) =>
      fun (ls : list t) =>
        if null[t](ls) then true
        else if null[t](cdr[t](ls)) then true
        else Ord<t>.leq(car[t](ls), car[t](cdr[t](ls))) && go(cdr[t](ls))
in
// reverse (accumulating)
let reverse =
  tfun t =>
    fun (ls : list t) =>
      (fix (go : fn(list t, list t) -> list t) =>
        fun (rest : list t, acc : list t) =>
          if null[t](rest) then acc
          else go(cdr[t](rest), cons[t](car[t](rest), acc)))(ls, nil[t])
in
// take / drop
let take =
  tfun t =>
    fix (go : fn(int, list t) -> list t) =>
      fun (n : int, ls : list t) =>
        if n <= 0 then nil[t]
        else if null[t](ls) then nil[t]
        else cons[t](car[t](ls), go(n - 1, cdr[t](ls)))
in
let drop =
  tfun t =>
    fix (go : fn(int, list t) -> list t) =>
      fun (n : int, ls : list t) =>
        if n <= 0 then ls
        else if null[t](ls) then nil[t]
        else go(n - 1, cdr[t](ls))
in
// higher-order: filter and map are plain System F, but compose with
// the concept-constrained algorithms
let filter =
  tfun t =>
    fix (go : fn(fn(t) -> bool, list t) -> list t) =>
      fun (p : fn(t) -> bool, ls : list t) =>
        if null[t](ls) then nil[t]
        else if p(car[t](ls)) then cons[t](car[t](ls), go(p, cdr[t](ls)))
        else go(p, cdr[t](ls))
in
let map_list =
  tfun a b =>
    fix (go : fn(fn(a) -> b, list a) -> list b) =>
      fun (f : fn(a) -> b, ls : list a) =>
        if null[a](ls) then nil[b]
        else cons[b](f(car[a](ls)), go(f, cdr[a](ls)))
in
// remove adjacent duplicates (unique on a sorted range gives set)
let unique_adjacent =
  tfun t where Eq<t> =>
    fix (go : fn(list t) -> list t) =>
      fun (ls : list t) =>
        if null[t](ls) then nil[t]
        else if null[t](cdr[t](ls)) then ls
        else if Eq<t>.eq(car[t](ls), car[t](cdr[t](ls)))
        then go(cdr[t](ls))
        else cons[t](car[t](ls), go(cdr[t](ls)))
in
// binary max over a whole range via the Ord default max2
let max_element =
  tfun i where Iterator<i>, Ord<Iterator<i>.elt> =>
    fix (go : fn(i, Iterator<i>.elt) -> Iterator<i>.elt) =>
      fun (it : i, best : Iterator<i>.elt) =>
        if Iterator<i>.at_end(it) then best
        else go(Iterator<i>.next(it), Ord<Iterator<i>.elt>.max2(best, Iterator<i>.curr(it)))
in
// sum_container: the Iterator requirement on the container's iterator
// type is implied by Container's nested requirement
let sum_container =
  tfun c where Container<c>, Monoid<Iterator<Container<c>.iter>.elt> =>
    fun (xs : c) =>
      accumulate_iter[Container<c>.iter](Container<c>.begin(xs))
in
|}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)

(** Everything: concepts, base models, parameterized list models,
    algorithms. *)
let full =
  concepts ^ int_models ^ bool_models ^ list_int_models
  ^ list_parameterized_models ^ algorithms

(** [wrap body] is a complete program evaluating [body] under the full
    prelude. *)
let wrap body = full ^ body

(** A literal [list int] in concrete syntax. *)
let int_list ns =
  List.fold_right
    (fun n acc -> Printf.sprintf "cons[int](%d, %s)" n acc)
    ns "nil[int]"
