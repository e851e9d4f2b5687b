(** Deterministic synthetic program families for the benchmark harness.

    Each family scales one dimension of the language implementation that
    DESIGN.md's experiment index calls out (rows B1–B5): refinement
    depth (dictionary nesting), number of models in scope (lookup),
    where-clause width (plan size), same-type constraint chains
    (congruence closure), and overall program size.  All functions
    return complete programs in concrete syntax. *)

let buf_program build =
  let b = Buffer.create 4096 in
  build b;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

(** A refinement chain of depth [n]: [C0 <- C1 <- ... <- C(n-1)], one
    member each; the generic function requires the deepest concept and
    accesses the {e shallowest} member, exercising the longest
    dictionary path. *)
let refinement_chain n =
  assert (n >= 1);
  buf_program (fun b ->
      for i = 0 to n - 1 do
        if i = 0 then
          Buffer.add_string b
            "concept C0<t> { op0 : fn(t, t) -> t; base : t; } in\n"
        else
          Printf.bprintf b "concept C%d<t> { refines C%d<t>; op%d : t; } in\n"
            i (i - 1) i
      done;
      Buffer.add_string b "model C0<int> { op0 = iadd; base = 1; } in\n";
      for i = 1 to n - 1 do
        Printf.bprintf b "model C%d<int> { op%d = %d; } in\n" i i i
      done;
      Printf.bprintf b
        "let f = tfun t where C%d<t> => fun (x : t) => C%d<t>.op0(x, \
         C%d<t>.base) in\nf[int](41)"
        (n - 1) (n - 1) (n - 1))

(** A diamond lattice of depth [n]: level [i] has two concepts, each
    refining both concepts of the previous level — the dedup stress from
    Section 5.2.  Every concept carries an associated type, so the slot
    deduplication is exercised too. *)
let refinement_diamond n =
  assert (n >= 1);
  buf_program (fun b ->
      Buffer.add_string b
        "concept D0a<t> { types s0a; v0a : t; } in\n\
         concept D0b<t> { types s0b; v0b : t; } in\n";
      for i = 1 to n - 1 do
        Printf.bprintf b
          "concept D%da<t> { types s%da; refines D%da<t>, D%db<t>; v%da : t; \
           } in\n"
          i i (i - 1) (i - 1) i;
        Printf.bprintf b
          "concept D%db<t> { types s%db; refines D%da<t>, D%db<t>; v%db : t; \
           } in\n"
          i i (i - 1) (i - 1) i
      done;
      Buffer.add_string b
        "model D0a<int> { types s0a = int; v0a = 1; } in\n\
         model D0b<int> { types s0b = int; v0b = 2; } in\n";
      for i = 1 to n - 1 do
        Printf.bprintf b "model D%da<int> { types s%da = int; v%da = %d; } in\n"
          i i i (2 * i);
        Printf.bprintf b "model D%db<int> { types s%db = int; v%db = %d; } in\n"
          i i i ((2 * i) + 1)
      done;
      Printf.bprintf b
        "let f = tfun t where D%da<t> => fun (x : t) => D%da<t>.v0a in\n\
         f[int](0)"
        (n - 1) (n - 1))

(** [many_models n]: [n] independent concept/model pairs in scope; the
    generic function requires only the first-declared concept, so model
    lookup scans past the other [n-1]. *)
let many_models n =
  assert (n >= 1);
  buf_program (fun b ->
      for i = 0 to n - 1 do
        Printf.bprintf b "concept M%d<t> { get%d : t; } in\n" i i
      done;
      for i = 0 to n - 1 do
        Printf.bprintf b "model M%d<int> { get%d = %d; } in\n" i i i
      done;
      Buffer.add_string b
        "let f = tfun t where M0<t> => fun (x : t) => M0<t>.get0 in\nf[int](0)")

(** [wide_where n]: one generic function with [n] distinct requirements,
    all used in the body; [n] dictionaries are passed. *)
let wide_where n =
  assert (n >= 1);
  buf_program (fun b ->
      for i = 0 to n - 1 do
        Printf.bprintf b "concept W%d<t> { w%d : fn(t) -> t; } in\n" i i
      done;
      for i = 0 to n - 1 do
        Printf.bprintf b
          "model W%d<int> { w%d = fun (x : int) => x + %d; } in\n" i i i
      done;
      Buffer.add_string b "let f = tfun t where ";
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "W%d<t>" i
      done;
      Buffer.add_string b " => fun (x : t) => ";
      for i = 0 to n - 1 do
        Printf.bprintf b "W%d<t>.w%d(" i i
      done;
      Buffer.add_string b "x";
      for _ = 0 to n - 1 do
        Buffer.add_char b ')'
      done;
      Buffer.add_string b " in\nf[int](0)")

(** [same_type_chain n]: a generic function over [n] type parameters
    chained by same-type constraints; the body casts through the chain.
    Exercises the congruence closure with a long equality chain. *)
let same_type_chain n =
  assert (n >= 2);
  buf_program (fun b ->
      Buffer.add_string b "let f = tfun ";
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_char b ' ';
        Printf.bprintf b "t%d" i
      done;
      Buffer.add_string b " where ";
      for i = 0 to n - 2 do
        if i > 0 then Buffer.add_string b ", ";
        Printf.bprintf b "t%d == t%d" i (i + 1)
      done;
      Printf.bprintf b " => fun (x : t0) => x in\nf[";
      for i = 0 to n - 1 do
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b "int"
      done;
      Buffer.add_string b "](7) + 1")

(** [assoc_chain n]: concepts [A1..An] where [Ai]'s associated type is
    pinned (via a same-type requirement) to the projection of
    [A(i-1)] — a chain of equalities through associated types. *)
let assoc_chain n =
  assert (n >= 1);
  buf_program (fun b ->
      Buffer.add_string b "concept A0<t> { types s; zero : s; } in\n";
      for i = 1 to n - 1 do
        Printf.bprintf b
          "concept A%d<t> { types s; refines A%d<t>; same s == A%d<t>.s; } in\n"
          i (i - 1) (i - 1)
      done;
      Buffer.add_string b "model A0<int> { types s = int; zero = 0; } in\n";
      for i = 1 to n - 1 do
        Printf.bprintf b "model A%d<int> { types s = int; } in\n" i
      done;
      Printf.bprintf b
        "let f = tfun t where A%d<t>, A%d<t>.s == int => fun (x : t) => \
         A0<t>.zero + 1 in\nf[int](5)"
        (n - 1) (n - 1))

(** [let_chain n]: [n] sequential generic definitions and calls;
    baseline for whole-program typechecking cost vs program size. *)
let let_chain n =
  assert (n >= 1);
  buf_program (fun b ->
      Buffer.add_string b
        "concept S<t> { op : fn(t, t) -> t; unit_elt : t; } in\n\
         model S<int> { op = iadd; unit_elt = 0; } in\n";
      for i = 0 to n - 1 do
        Printf.bprintf b
          "let g%d = tfun t where S<t> => fun (x : t) => S<t>.op(x, x) in\n" i
      done;
      Buffer.add_string b "0";
      for i = 0 to n - 1 do
        Printf.bprintf b " + g%d[int](%d)" i i
      done)

(** [shared_prefix ?edit_at ?edit ~decls ()]: a [decls]-declaration
    spine of independent generic definitions with a one-call residual
    body.  All members of the family share every declaration except
    number [edit_at], whose bound variable is renamed to [x<edit>] — a
    content change that moves no other line and consumes no extra
    fresh names, so re-checking one member against a session warm from
    another re-checks declaration [edit_at] and every one after it:
    one compilation unit for the last, all of them for the first (B7,
    the incremental-frontend dimension). *)
let shared_prefix ?(edit_at = -1) ?(edit = 0) ~decls () =
  assert (decls >= 1);
  buf_program (fun b ->
      Buffer.add_string b
        "concept S<t> { op : fn(t, t) -> t; unit_elt : t; } in\n\
         model S<int> { op = iadd; unit_elt = 0; } in\n";
      for i = 0 to decls - 1 do
        let v = if i = edit_at then Printf.sprintf "x%d" (max 0 edit) else "x" in
        Printf.bprintf b
          "let g%d = tfun t where S<t> => fun (%s : t) => \
           S<t>.op(S<t>.op(S<t>.op(%s, S<t>.unit_elt), %s), %s) in\n"
          i v v v v
      done;
      Printf.bprintf b "g%d[int](1)" (decls - 1))

(** [instantiation_fanout ?reps n]: one generic called at [n] distinct
    ground types ([int], [list int], …, [list^(n-1) int]), [reps]
    times each, with the [Size<list t>] dictionaries built by the
    parameterized model.  Dictionary passing rebuilds the chain at
    every call, so repetitions multiply the dictionary work. *)
let instantiation_fanout ?(reps = 3) n =
  assert (n >= 1 && reps >= 1);
  buf_program (fun b ->
      Buffer.add_string b
        "concept Size<t> { size : fn(t) -> int; } in\n\
         model Size<int> { size = fun (x : int) => 1; } in\n\
         model <t> where Size<t> => Size<list t> {\n\
        \  size = fix (go : fn(list t) -> int) =>\n\
        \    fun (l : list t) =>\n\
        \      if null[t](l) then 0\n\
        \      else Size<t>.size(car[t](l)) + go(cdr[t](l));\n\
         } in\n\
         let total = tfun t where Size<t> => fun (x : t) => Size<t>.size(x) \
         in\n\
         0";
      let rec ty k = if k = 0 then "int" else "list (" ^ ty (k - 1) ^ ")" in
      for k = 0 to n - 1 do
        let arg =
          if k = 0 then "0" else Printf.sprintf "nil[%s]" (ty (k - 1))
        in
        for _ = 1 to reps do
          Printf.bprintf b " + total[%s](%s)" (ty k) arg
        done
      done)

(** [param_depth n]: equality at [list^n int] through the parameterized
    [Eq<list t>] model — resolution must construct an [n]-deep
    dictionary chain (B6). *)
let param_depth n =
  assert (n >= 1);
  buf_program (fun b ->
      Buffer.add_string b
        "concept Eq<t> { eq : fn(t, t) -> bool; } in\n\
         model Eq<int> { eq = ieq; } in\n\
         model <t> where Eq<t> => Eq<list t> {\n\
        \  eq = fix (go : fn(list t, list t) -> bool) =>\n\
        \    fun (a : list t, b : list t) =>\n\
        \      if null[t](a) then null[t](b)\n\
        \      else if null[t](b) then false\n\
        \      else Eq<t>.eq(car[t](a), car[t](b)) && go(cdr[t](a), cdr[t](b));\n\
         } in\n";
      let rec ty k = if k = 0 then "int" else "list (" ^ ty (k - 1) ^ ")" in
      let nil k =
        if k = 1 then "nil[int]" else Printf.sprintf "nil[%s]" (ty (k - 1))
      in
      Printf.bprintf b "Eq<%s>.eq(%s, %s)" (ty n) (nil n) (nil n))

(** [implicit_calls n]: [n] implicitly instantiated calls in sequence —
    measures the inference overhead against [explicit_calls n]. *)
let implicit_calls ~implicit n =
  assert (n >= 1);
  buf_program (fun b ->
      Buffer.add_string b
        "concept Num<t> { add : fn(t, t) -> t; } in\n\
         model Num<int> { add = iadd; } in\n\
         let double = tfun t where Num<t> => fun (x : t) => Num<t>.add(x, x) in\n\
         0";
      for _ = 1 to n do
        if implicit then Buffer.add_string b " + double(1)"
        else Buffer.add_string b " + double[int](1)"
      done)

(** [accumulate_workload n]: the Figure 5 accumulate applied to a list
    of length [n]; used for the dictionary-overhead experiment against
    the hand-written System F version below. *)
let accumulate_workload n =
  let rec list_src i = if i >= n then "nil[int]"
    else Printf.sprintf "cons[int](%d, %s)" i (list_src (i + 1))
  in
  Corpus.monoid_prelude ^ Corpus.accumulate_def ^ Corpus.monoid_int_add
  ^ Printf.sprintf "accumulate[int](%s)" (list_src 0)

(** The same workload written directly in System F (Figure 3 style) with
    the operations passed explicitly — the baseline for B3. *)
let accumulate_workload_systemf n =
  let rec list_src i = if i >= n then "nil[int]"
    else Printf.sprintf "cons[int](%d, %s)" i (list_src (i + 1))
  in
  Printf.sprintf
    {|let sum =
  tfun t =>
    fix (sum : fn(list t, fn(t, t) -> t, t) -> t) =>
      fun (ls : list t, add : fn(t, t) -> t, zero : t) =>
        if null[t](ls) then zero
        else add(car[t](ls), sum(cdr[t](ls), add, zero))
in
sum[int](%s, iadd, 0)|}
    (list_src 0)

(** A monomorphic, dictionary-free System F sum over the same list — the
    lower-bound baseline for B3. *)
let accumulate_workload_mono n =
  let rec list_src i = if i >= n then "nil[int]"
    else Printf.sprintf "cons[int](%d, %s)" i (list_src (i + 1))
  in
  Printf.sprintf
    {|let sum =
  fix (sum : fn(list int) -> int) =>
    fun (ls : list int) =>
      if null[int](ls) then 0 else car[int](ls) + sum(cdr[int](ls))
in
sum(%s)|}
    (list_src 0)
