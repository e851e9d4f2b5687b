(* White-box tests of the type-level machinery (lib/fg/types.ml): the
   paper's ba/b/bw/bm functions, dictionary layout, plan shapes, and
   type translation — checked directly against hand-computed results. *)

open Fg_core
module T = Types
module F = Fg_systemf.Ast

let ty = Parser.ty_of_string

(* An environment with the iterator-flavoured concept stack:
     Eq<t>           { eq }
     Ord<t>          { refines Eq; less }
     Iterator<i>     { types elt; next, curr, at_end }
     Fancy<i>        { types pos; refines Iterator<i>, Ord<Fancy<i>.pos... } *)
let env_with src =
  let e = Parser.exp_of_string (src ^ " 0") in
  (* walk the concept declarations, building the environment *)
  let rec go env (e : Ast.exp) =
    match e.Ast.desc with
    | Ast.ConceptDecl (d, body) -> go (Env.bind_concept env d) body
    | _ -> env
  in
  go (Env.create ()) e

let stack =
  {|concept Eq<t> { eq : fn(t, t) -> bool; } in
concept Ord<t> { refines Eq<t>; less : fn(t, t) -> bool; } in
concept Iterator<i> { types elt; next : fn(i) -> i; curr : fn(i) -> elt; at_end : fn(i) -> bool; } in
concept Pair<a, b> { fst_ : a; snd_ : b; } in
|}

let env = env_with stack

let test_assoc_scope () =
  let scope = T.assoc_scope env ("Iterator", [ ty "list int" ]) in
  Alcotest.(check int) "one assoc" 1 (List.length scope);
  let name, proj = List.hd scope in
  Alcotest.(check string) "name" "elt" name;
  Alcotest.(check string) "qualified projection" "Iterator<list int>.elt"
    (Pretty.ty_to_string proj)

let test_instantiation_subst () =
  let s = T.instantiation_subst env ("Iterator", [ ty "bool" ]) in
  (* parameter i -> bool, assoc elt -> Iterator<bool>.elt *)
  Alcotest.(check string) "param" "bool"
    (Pretty.ty_to_string (List.assoc "i" s));
  Alcotest.(check string) "assoc" "Iterator<bool>.elt"
    (Pretty.ty_to_string (List.assoc "elt" s))

let test_refinements () =
  Alcotest.(check (list string)) "Ord refines Eq at the same arg"
    [ "Eq<int>" ]
    (List.map
       (fun (c, args) -> Pretty.constr_to_string (Ast.CModel (c, args)))
       (T.refinements env ("Ord", [ ty "int" ])));
  Alcotest.(check int) "Eq refines nothing" 0
    (List.length (T.refinements env ("Eq", [ ty "int" ])))

let test_member_lookup_paths () =
  (* Ord's own member: after the 1 refinement slot -> index 1 *)
  (match T.member_lookup env ("Ord", [ ty "int" ]) "less" with
  | Some (t, path) ->
      Alcotest.(check string) "type" "fn(int, int) -> bool"
        (Pretty.ty_to_string t);
      Alcotest.(check (list int)) "own member path" [ 1 ] path
  | None -> Alcotest.fail "less not found");
  (* inherited member: through refinement 0, then Eq's member 0 *)
  (match T.member_lookup env ("Ord", [ ty "int" ]) "eq" with
  | Some (_, path) -> Alcotest.(check (list int)) "inherited path" [ 0; 0 ] path
  | None -> Alcotest.fail "eq not found");
  (* missing member *)
  Alcotest.(check bool) "missing" true
    (T.member_lookup env ("Ord", [ ty "int" ]) "ghost" = None);
  (* member type uses the assoc projection *)
  match T.member_lookup env ("Iterator", [ ty "bool" ]) "curr" with
  | Some (t, path) ->
      Alcotest.(check string) "curr type" "fn(bool) -> Iterator<bool>.elt"
        (Pretty.ty_to_string t);
      Alcotest.(check (list int)) "curr path" [ 1 ] path
  | None -> Alcotest.fail "curr not found"

let test_all_members () =
  let ms = T.all_members env ("Ord", [ ty "int" ]) in
  Alcotest.(check (list string)) "own first, then inherited"
    [ "less"; "eq" ]
    (List.map (fun (x, _, _) -> x) ms)

let test_process_where_plan () =
  let env', plan, dict_tys =
    T.process_where_dicts env [ "i" ]
      [ Ast.CModel ("Iterator", [ Ast.TVar "i" ]) ]
  in
  (* one requirement -> one dictionary; one assoc -> one slot *)
  Alcotest.(check int) "one dict" 1 (List.length plan.T.p_dicts);
  Alcotest.(check int) "one slot" 1 (List.length plan.T.p_slots);
  let _, (c, _, s) = List.hd plan.T.p_slots in
  Alcotest.(check string) "slot concept" "Iterator" c;
  Alcotest.(check string) "slot assoc" "elt" s;
  (* the proxy model is in scope in env' *)
  Alcotest.(check bool) "proxy in scope" true
    (Env.lookup_model env' "Iterator" [ Ast.TVar "i" ] <> None);
  (* dictionary type: (fn(i)->i) * (fn(i)->slot) * (fn(i)->bool) *)
  let dty = List.hd dict_tys in
  match dty with
  | F.TTuple [ F.TArrow ([ F.TVar "i" ], F.TVar "i"); _; _ ] -> ()
  | _ ->
      Alcotest.failf "unexpected dict type %s"
        (Fg_systemf.Pretty.ty_to_string dty)

let test_plan_refinement_closure () =
  let _, plan, dict_tys =
    T.process_where_dicts env [ "t" ] [ Ast.CModel ("Ord", [ Ast.TVar "t" ]) ]
  in
  (* Ord has no assoc; neither does Eq: no slots, one dict *)
  Alcotest.(check int) "no slots" 0 (List.length plan.T.p_slots);
  Alcotest.(check int) "one dict" 1 (List.length plan.T.p_dicts);
  let dty = List.hd dict_tys in
  (* nested: ((eq), less) *)
  match dty with
  | F.TTuple [ F.TTuple [ _ ]; _ ] -> ()
  | _ ->
      Alcotest.failf "unexpected Ord dict %s"
        (Fg_systemf.Pretty.ty_to_string dty)

let test_dict_type_multi_param () =
  let env', _ =
    T.process_where env [ "a"; "b" ]
      [ Ast.CModel ("Pair", [ Ast.TVar "a"; Ast.TVar "b" ]) ]
  in
  let dty = T.dict_type env' ("Pair", [ Ast.TVar "a"; Ast.TVar "b" ]) in
  match dty with
  | F.TTuple [ F.TVar "a"; F.TVar "b" ] -> ()
  | _ ->
      Alcotest.failf "unexpected Pair dict %s"
        (Fg_systemf.Pretty.ty_to_string dty)

let test_wf_rejects () =
  (* TYASC without a model *)
  (match
     Fg_util.Diag.protect (fun () ->
         T.wf_ty env (ty "Iterator<list int>.elt"))
   with
  | Ok () -> Alcotest.fail "expected wf failure"
  | Error d -> Alcotest.(check bool) "wf" true (d.phase = Fg_util.Diag.Wf));
  (* unknown assoc name *)
  let env', _ =
    T.process_where env [ "i" ] [ Ast.CModel ("Iterator", [ Ast.TVar "i" ]) ]
  in
  match
    Fg_util.Diag.protect (fun () -> T.wf_ty env' (ty "Iterator<i>.ghost"))
  with
  | Ok () -> Alcotest.fail "expected wf failure"
  | Error d ->
      Alcotest.(check bool) "no such assoc" true
        (Astring_contains.contains ~needle:"no associated type" d.message)

let test_translate_ty_forall () =
  (* forall i where Iterator<i>. fn(i) -> Iterator<i>.elt
     ==> forall i elt'. fn(dict) -> fn(i) -> elt' *)
  let t =
    ty "forall i where Iterator<i>. fn(i) -> Iterator<i>.elt"
  in
  match T.translate_ty env t with
  | F.TForall ([ i; slot ], F.TArrow ([ _dict ], F.TArrow ([ F.TVar i' ], F.TVar r)))
    ->
      Alcotest.(check string) "binder" "i" i;
      Alcotest.(check string) "param uses binder" i i';
      Alcotest.(check string) "result uses the slot" slot r
  | ft ->
      Alcotest.failf "unexpected translation %s"
        (Fg_systemf.Pretty.ty_to_string ft)

let test_translate_ty_unconstrained () =
  match T.translate_ty env (ty "forall a. fn(a) -> a") with
  | F.TForall ([ "a" ], F.TArrow ([ F.TVar "a" ], F.TVar "a")) -> ()
  | ft ->
      Alcotest.failf "unexpected %s" (Fg_systemf.Pretty.ty_to_string ft)

(* A where clause over a diamond builds the base's dictionary type
   once, and both paths share it; a base whose dictionary type draws
   fresh names (a constrained [forall] member) is built once per path,
   with its own names, as the translation always did. *)
let test_diamond_dict_shared () =
  let base_of env =
    match
      T.process_where_dicts env [ "t" ] [ Ast.CModel ("Top", [ Ast.TVar "t" ]) ]
    with
    | _, _, [ F.TTuple [ F.TTuple [ l1; _ ]; F.TTuple [ l2; _ ] ] ] -> (l1, l2)
    | _, _, dtys ->
        Alcotest.failf "unexpected Top dict %s"
          (String.concat "; " (List.map Fg_systemf.Pretty.ty_to_string dtys))
  in
  let diamond base =
    env_with
      (stack ^ base
     ^ {|concept M1<t> { refines L<t>; m1 : t; } in
concept M2<t> { refines L<t>; m2 : t; } in
concept Top<t> { refines M1<t>, M2<t>; } in
|})
  in
  let l1, l2 = base_of (diamond "concept L<t> { lv : fn(t) -> t; } in\n") in
  Alcotest.(check bool) "base shared" true (l1 == l2);
  let l1, l2 =
    base_of
      (diamond "concept L<t> { lf : forall u where Eq<u>. fn(u) -> t; } in\n")
  in
  Alcotest.(check bool) "name-drawing base rebuilt" true (l1 != l2);
  Alcotest.(check bool) "and equal" true (F.alpha_equal l1 l2)

(* The concept-query memo is keyed by concept table, not by name: the
   inner A and B have other associated types and members than the
   outer ones, and the same where clause [B<t>] must see them. *)
let test_memo_keyed_by_concept_table () =
  let src =
    {|concept A<t> { types x; ax : x; } in
concept B<t> { refines A<t>; bx : fn(x) -> int; } in
model A<int> { types x = int; ax = 40; } in
model B<int> { bx = fun (v : int) => v + 1; } in
let f = tfun t where B<t> => fun (u : t) => B<t>.bx(B<t>.ax) in
let r = f[int](0) in
concept A<t> { types y; ay : fn(t) -> y; } in
concept B<t> { refines A<t>; by : fn(y) -> int; } in
model A<bool> { types y = int; ay = fun (b : bool) => if b then 1 else 0; } in
model B<bool> { by = fun (n : int) => n; } in
let g = tfun t where B<t> => fun (u : t) => B<t>.by(B<t>.ay(u)) in
r + g[bool](true)|}
  in
  match Theorems.check_agreement_result (Parser.exp_of_string src) with
  | Ok a ->
      Alcotest.(check string) "value" "42"
        (Interp.flat_to_string a.Theorems.direct)
  | Error d -> Alcotest.failf "%s" (Fg_util.Diag.to_string d)

let suite =
  [
    Alcotest.test_case "assoc_scope (ba)" `Quick test_assoc_scope;
    Alcotest.test_case "instantiation_subst" `Quick test_instantiation_subst;
    Alcotest.test_case "refinements" `Quick test_refinements;
    Alcotest.test_case "member_lookup paths (b)" `Quick
      test_member_lookup_paths;
    Alcotest.test_case "all_members ordering" `Quick test_all_members;
    Alcotest.test_case "process_where plan (bw/bm)" `Quick
      test_process_where_plan;
    Alcotest.test_case "refinement closure in dict" `Quick
      test_plan_refinement_closure;
    Alcotest.test_case "multi-param dict type" `Quick
      test_dict_type_multi_param;
    Alcotest.test_case "wf rejections" `Quick test_wf_rejects;
    Alcotest.test_case "translate constrained forall" `Quick
      test_translate_ty_forall;
    Alcotest.test_case "translate plain forall" `Quick
      test_translate_ty_unconstrained;
    Alcotest.test_case "diamond dictionary types shared" `Quick
      test_diamond_dict_shared;
    Alcotest.test_case "memo keyed by concept table" `Quick
      test_memo_keyed_by_concept_table;
  ]
