(* White-box tests of the environment and model resolution
   (lib/fg/env.ml): lookup order, parameterized pattern matching,
   context discharge, projection normalization, and the depth fuse. *)

open Fg_core
module Smap = Fg_util.Names.Smap

let ty = Parser.ty_of_string

(* Build an environment by checking a declaration prefix: reuse the
   checker so entries/equations are exactly what programs get.  We
   extract the env by checking `prefix 0` and capturing it through a
   probe — simpler: construct entries by hand where needed. *)

let eq_concept =
  {
    Ast.c_name = "Eq";
    c_params = [ "t" ];
    c_assoc = [];
    c_refines = [];
    c_requires = [];
    c_members = [ ("eq", ty "fn(t, t) -> bool") ];
    c_defaults = [];
    c_same = [];
    c_loc = Fg_util.Loc.dummy;
  }

let iter_concept =
  {
    Ast.c_name = "It";
    c_params = [ "i" ];
    c_assoc = [ "elt" ];
    c_refines = [];
    c_requires = [];
    c_members = [ ("curr", ty "fn(i) -> elt") ];
    c_defaults = [];
    c_same = [];
    c_loc = Fg_util.Loc.dummy;
  }

let ground_entry ?(dict = "d0") c args assoc =
  {
    Env.me_concept = c;
    me_params = [];
    me_constrs = [];
    me_args = args;
    me_dict = dict;
    me_path = [];
    me_assoc =
      List.fold_left (fun m (s, t) -> Smap.add s t m) Smap.empty assoc;
    me_proxy = false;
  }

let base_env =
  let env = Env.create () in
  let env = Env.bind_concept env eq_concept in
  Env.bind_concept env iter_concept

let test_ground_lookup_and_shadowing () =
  let e1 = ground_entry ~dict:"outer" "Eq" [ ty "int" ] [] in
  let e2 = ground_entry ~dict:"inner" "Eq" [ ty "int" ] [] in
  let env = Env.bind_model (Env.bind_model base_env e1) e2 in
  (match Env.lookup_model env "Eq" [ ty "int" ] with
  | Some { fm_entry; fm_subst = [] } ->
      Alcotest.(check string) "innermost wins" "inner" fm_entry.Env.me_dict
  | _ -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "other type misses" true
    (Env.lookup_model env "Eq" [ ty "bool" ] = None);
  Alcotest.(check bool) "other concept misses" true
    (Env.lookup_model env "It" [ ty "int" ] = None)

let param_eq_list =
  {
    Env.me_concept = "Eq";
    me_params = [ "t" ];
    me_constrs = [ Ast.CModel ("Eq", [ Ast.TVar "t" ]) ];
    me_args = [ ty "list t" ];
    me_dict = "dlist";
    me_path = [];
    me_assoc = Smap.empty;
    me_proxy = false;
  }

let test_parameterized_matching () =
  let env =
    Env.bind_model
      (Env.bind_model base_env (ground_entry "Eq" [ ty "int" ] []))
      param_eq_list
  in
  (* matches with t := int, context Eq<int> discharged *)
  (match Env.lookup_model env "Eq" [ ty "list int" ] with
  | Some { fm_entry; fm_subst = [ ("t", t) ] } ->
      Alcotest.(check string) "entry" "dlist" fm_entry.Env.me_dict;
      Alcotest.(check string) "binding" "int" (Pretty.ty_to_string t)
  | _ -> Alcotest.fail "parameterized lookup failed");
  (* nested: t := list int, context recursively discharged *)
  (match Env.lookup_model env "Eq" [ ty "list (list int)" ] with
  | Some { fm_subst = [ ("t", t) ]; _ } ->
      Alcotest.(check string) "nested binding" "list int"
        (Pretty.ty_to_string t)
  | _ -> Alcotest.fail "nested lookup failed");
  (* context NOT discharged: no Eq<bool> in scope *)
  Alcotest.(check bool) "missing context" true
    (Env.lookup_model env "Eq" [ ty "list bool" ] = None)

let test_normalize_projections () =
  let it_model =
    ground_entry "It" [ ty "list int" ] [ ("elt", ty "int") ]
  in
  let env = Env.bind_model base_env it_model in
  Alcotest.(check string) "projection resolves" "int"
    (Pretty.ty_to_string (Env.normalize env (ty "It<list int>.elt")));
  Alcotest.(check string) "inside constructors" "fn(int) -> list int"
    (Pretty.ty_to_string
       (Env.normalize env (ty "fn(It<list int>.elt) -> list It<list int>.elt")));
  (* unresolvable projections stay *)
  Alcotest.(check string) "unresolved stays" "It<bool>.elt"
    (Pretty.ty_to_string (Env.normalize env (ty "It<bool>.elt")))

let test_parameterized_assoc_normalization () =
  let it_list =
    {
      Env.me_concept = "It";
      me_params = [ "t" ];
      me_constrs = [];
      me_args = [ ty "list t" ];
      me_dict = "diter";
      me_path = [];
      me_assoc = Smap.add "elt" (Ast.TVar "t") Smap.empty;
      me_proxy = false;
    }
  in
  let env = Env.bind_model base_env it_list in
  (* one schematic model resolves the projection at every list type *)
  Alcotest.(check string) "elt of list int" "int"
    (Pretty.ty_to_string (Env.normalize env (ty "It<list int>.elt")));
  Alcotest.(check string) "elt of list (list bool)" "list bool"
    (Pretty.ty_to_string
       (Env.normalize env (ty "It<list (list bool)>.elt")));
  (* and equality sees through it *)
  Alcotest.(check bool) "ty_eq through projection" true
    (Env.ty_eq env (ty "It<list int>.elt") (ty "int"))

let test_depth_fuse () =
  (* a model whose context requires a LARGER instance of itself *)
  let diverging =
    {
      Env.me_concept = "Eq";
      me_params = [ "t" ];
      me_constrs = [ Ast.CModel ("Eq", [ ty "list t" ]) ];
      me_args = [ Ast.TVar "t" ];
      me_dict = "dbad";
      me_path = [];
      me_assoc = Smap.empty;
      me_proxy = false;
    }
  in
  let env = Env.bind_model base_env diverging in
  match
    Fg_util.Diag.protect (fun () -> Env.lookup_model env "Eq" [ ty "int" ])
  with
  | Ok _ -> Alcotest.fail "expected depth fuse"
  | Error d ->
      Alcotest.(check bool) "depth message" true
        (Astring_contains.contains ~needle:"depth" d.message)

let test_fresh_closure_per_env () =
  (* Equality queries intern terms into the context's congruence
     closure, which is unsynchronized.  Environments from separate
     [create] calls (one per batch domain or server session) must each
     own theirs: a query in one leaves the other's closure empty. *)
  let e1 = Env.create () and e2 = Env.create () in
  ignore (Env.ty_eq e1 (ty "list a") (ty "list b"));
  Alcotest.(check bool) "e1 interned its query" true
    (Equality.class_count e1.Env.eq > 0);
  Alcotest.(check int) "e2's closure is untouched" 0
    (Equality.class_count e2.Env.eq)

let test_ty_repr_prefers_ground () =
  let env = Env.assume base_env (Ast.TVar "a") (ty "int") in
  let env = Env.bind_tyvars env [ "a" ] in
  Alcotest.(check string) "repr" "int"
    (Pretty.ty_to_string (Env.ty_repr env (Ast.TVar "a")));
  Alcotest.(check bool) "eq" true (Env.ty_eq env (Ast.TVar "a") (ty "int"))

let test_named_model_table () =
  let entry = ground_entry "Eq" [ ty "int" ] [] in
  let env = Env.bind_named_model base_env "m" entry in
  Alcotest.(check bool) "named recorded" true
    (Env.lookup_named_model env "m" <> None);
  Alcotest.(check bool) "not active" true
    (Env.lookup_model env "Eq" [ ty "int" ] = None);
  let env' = Env.bind_model env entry in
  Alcotest.(check bool) "active after binding" true
    (Env.lookup_model env' "Eq" [ ty "int" ] <> None)

let suite =
  [
    Alcotest.test_case "ground lookup and shadowing" `Quick
      test_ground_lookup_and_shadowing;
    Alcotest.test_case "parameterized matching" `Quick
      test_parameterized_matching;
    Alcotest.test_case "normalize projections" `Quick
      test_normalize_projections;
    Alcotest.test_case "parameterized assoc normalization" `Quick
      test_parameterized_assoc_normalization;
    Alcotest.test_case "depth fuse" `Quick test_depth_fuse;
    Alcotest.test_case "each environment owns its closure" `Quick
      test_fresh_closure_per_env;
    Alcotest.test_case "ty_repr prefers ground" `Quick
      test_ty_repr_prefers_ground;
    Alcotest.test_case "named model table" `Quick test_named_model_table;
  ]
