(* One algorithm, three algebras: semiring-generic matrix algebra.

   Run with:  dune exec examples/semirings.exe

   The library's generic mat_mul is constrained only by a Semiring
   concept.  Instantiated under three NAMED models (the Section 6
   named-models extension — `arith` and `tropical` overlap at int, so
   explicit `using` selection is exactly what is needed):

     arith     (+, ×, 0, 1)        -> ordinary linear algebra
     boolean   (∨, ∧, false, true) -> graph reachability
     tropical  (min, +, ∞, 0)      -> shortest paths

   This is the classic demonstration that generic programming is about
   algebraic structure — the paper's Monoid discussion (Section 3.1),
   taken to its natural conclusion. *)

module C = Fg_core

let banner s = Fmt.pr "@.=== %s ===@." s

(* One session over the matrix library: concepts, the three named
   semiring models and mat_mul are checked once, shared by every
   [show]. *)
let session =
  C.Session.of_config
    { C.Session.Config.default with prelude = Some C.Matrix_lib.full }

let show label body =
  let out = C.Session.run ~file:"semirings" session body in
  Fmt.pr "%-34s = %a@." label C.Interp.pp_flat out.value

let () =
  Fmt.pr "The Semiring concept and its three named models (FG source):@.%s%s@."
    C.Matrix_lib.concepts C.Matrix_lib.models;

  banner "arith: ordinary matrix algebra";
  let a = C.Matrix_lib.int_matrix [ [ 1; 2 ]; [ 3; 4 ] ] in
  let b = C.Matrix_lib.int_matrix [ [ 5; 6 ]; [ 7; 8 ] ] in
  show "A * B" (Printf.sprintf "using arith in mat_mul[int](%s, %s)" a b);
  show "A^2" (Printf.sprintf "using arith in mat_pow[int](%s, 2, 2)" a);
  show "transpose A" (Printf.sprintf "using arith in transpose[int](%s)" a);
  show "identity 3" "using arith in identity_matrix[int](3)";

  banner "boolean: the SAME mat_pow computes reachability";
  (* cycle 1 -> 2 -> 3 -> 1 *)
  let g =
    C.Matrix_lib.bool_matrix
      [
        [ false; true; false ]; [ false; false; true ]; [ true; false; false ];
      ]
  in
  show "adjacency A" (Printf.sprintf "using boolean in mat_pow[bool](%s, 3, 1)" g);
  show "A^2 (2-step paths)"
    (Printf.sprintf "using boolean in mat_pow[bool](%s, 3, 2)" g);
  show "A^3 (back to self)"
    (Printf.sprintf "using boolean in mat_pow[bool](%s, 3, 3)" g);

  banner "tropical: the SAME mat_mul computes shortest paths";
  let inf = 1000000 in
  let w =
    C.Matrix_lib.int_matrix
      [ [ 0; 3; 100 ]; [ inf; 0; 4 ]; [ inf; inf; 0 ] ]
  in
  Fmt.pr "weights: 1 -3-> 2 -4-> 3, plus a costly direct edge 1 -100-> 3@.";
  show "W (direct hops)"
    (Printf.sprintf "using tropical in mat_pow[int](%s, 3, 1)" w);
  show "W^2 (<= 2 hops: 1->3 now 7)"
    (Printf.sprintf "using tropical in mat_mul[int](%s, %s)" w w);

  Fmt.pr
    "@.`arith` and `tropical` both model Semiring<int> — overlapping@.\
     models, selected explicitly by name with `using`, which is the@.\
     named-models extension doing exactly the job the paper assigns it.@."
