(** Substitution-based small-step (CBV, leftmost-outermost) semantics
    for System F.

    The big-step evaluator ({!Eval}) is environment-based with
    backpatched [fix]; this module gives the textbook substitution
    semantics instead, so the two can be tested against each other — a
    third, independent check on the translation's output (alongside the
    FG direct interpreter).

    Values are the expected term forms: literals, lambdas, type
    abstractions, tuples of values, [nil]/[cons]-spines, and partially
    applied primitives.  One {!step} contracts the leftmost-outermost
    redex; {!normalize} iterates under a fuel bound.  Only the tests
    use it, as a reference oracle. *)

open Fg_systemf
open Ast
open Fg_util
module Smap = Names.Smap
module Sset = Names.Sset

(* ---------------------------------------------------------------- *)
(* Term substitution (capture-avoiding)                               *)

let rec fv (e : exp) : Sset.t =
  match e.desc with
  | Var x -> Sset.singleton x
  | Lit _ | Prim _ -> Sset.empty
  | App (f, args) ->
      List.fold_left (fun acc a -> Sset.union acc (fv a)) (fv f) args
  | Abs (params, body) ->
      Sset.diff (fv body) (Sset.of_list (List.map fst params))
  | TyAbs (_, body) -> fv body
  | TyApp (f, _) -> fv f
  | Let (x, rhs, body) -> Sset.union (fv rhs) (Sset.remove x (fv body))
  | Tuple es ->
      List.fold_left (fun acc a -> Sset.union acc (fv a)) Sset.empty es
  | Nth (e0, _) -> fv e0
  | Fix (x, _, body) -> Sset.remove x (fv body)
  | If (c, t, f) -> Sset.union (fv c) (Sset.union (fv t) (fv f))

let rec rename_if_needed avoid x =
  if Sset.mem x avoid then rename_if_needed avoid (x ^ "'") else x

(** [subst x v e] — capture-avoiding substitution of [v] for [x]. *)
let rec subst (x : string) (v : exp) (e : exp) : exp =
  let sub = subst x v in
  let fv_v = fv v in
  let desc =
    match e.desc with
    | Var y -> if String.equal x y then v.desc else e.desc
    | (Lit _ | Prim _) as d -> d
    | App (f, args) -> App (sub f, List.map sub args)
    | Abs (params, body) ->
        if List.exists (fun (y, _) -> String.equal x y) params then e.desc
        else begin
          (* rename any binder that would capture a free var of v *)
          let body, params =
            List.fold_left
              (fun (body, acc) (y, t) ->
                if Sset.mem y fv_v then begin
                  let y' =
                    rename_if_needed (Sset.union fv_v (fv body)) y
                  in
                  (subst y (var y') body, acc @ [ (y', t) ])
                end
                else (body, acc @ [ (y, t) ]))
              (body, []) params
          in
          Abs (params, sub body)
        end
    | TyAbs (tvs, body) -> TyAbs (tvs, sub body)
    | TyApp (f, tys) -> TyApp (sub f, tys)
    | Let (y, rhs, body) ->
        if String.equal x y then Let (y, sub rhs, body)
        else if Sset.mem y fv_v then begin
          let y' = rename_if_needed (Sset.union fv_v (fv body)) y in
          Let (y', sub rhs, sub (subst y (var y') body))
        end
        else Let (y, sub rhs, sub body)
    | Tuple es -> Tuple (List.map sub es)
    | Nth (e0, k) -> Nth (sub e0, k)
    | Fix (y, t, body) ->
        if String.equal x y then e.desc
        else if Sset.mem y fv_v then begin
          let y' = rename_if_needed (Sset.union fv_v (fv body)) y in
          Fix (y', t, sub (subst y (var y') body))
        end
        else Fix (y, t, sub body)
    | If (c, t, f) -> If (sub c, sub t, sub f)
  in
  { e with desc }

(* ---------------------------------------------------------------- *)
(* Values                                                             *)

(* A primitive application spine: App(...(App(Prim p, a1), ...), ak)
   flattened to (p, [a1; ...; ak]). *)
let rec prim_spine (e : exp) : (string * exp list) option =
  match e.desc with
  | Prim p -> Some (p, [])
  | TyApp (f, _) -> prim_spine f
  | App (f, args) -> (
      match prim_spine f with
      | Some (p, collected) -> Some (p, collected @ args)
      | None -> None)
  | _ -> None

let rec is_value (e : exp) : bool =
  match e.desc with
  | Lit _ | Abs _ | TyAbs _ -> true
  | Prim _ -> true
  | Tuple es -> List.for_all is_value es
  | TyApp ({ desc = Prim _; _ }, _) -> true (* nil[t], cons[t], ... *)
  | App _ -> (
      (* constructor spines and partial primitive applications *)
      match prim_spine e with
      | Some (p, args) when List.for_all is_value args -> (
          match Prims.lookup p with
          | Some info ->
              if p = "cons" then List.length args <= info.arity
              else List.length args < info.arity
          | None -> false)
      | _ -> false)
  | _ -> false

(* Lists as terms: read a cons/nil spine into OCaml list of values. *)
let rec read_list (e : exp) : exp list option =
  match e.desc with
  | TyApp ({ desc = Prim "nil"; _ }, _) -> Some []
  | _ -> (
      match prim_spine e with
      | Some ("cons", [ hd; tl ]) ->
          Option.map (fun rest -> hd :: rest) (read_list tl)
      | _ -> None)

(* Rebuild a term list at element type t. *)
let rec build_list ~loc t = function
  | [] -> tyapp ~loc (prim ~loc "nil") [ t ]
  | hd :: tl ->
      app ~loc (tyapp ~loc (prim ~loc "cons") [ t ]) [ hd; build_list ~loc t tl ]

(* The element type of a list-typed spine, recovered from its nil. *)
let rec list_elt_ty (e : exp) : ty option =
  match e.desc with
  | TyApp ({ desc = Prim "nil"; _ }, [ t ]) -> Some t
  | _ -> (
      match prim_spine e with
      | Some ("cons", [ _; tl ]) -> list_elt_ty tl
      | _ -> None)

(* ---------------------------------------------------------------- *)
(* Delta rules on terms                                               *)

let delta ?loc (p : string) (args : exp list) : exp =
  let int_of e =
    match e.desc with
    | Lit (LInt n) -> n
    | _ -> Diag.eval_error ?loc "step: primitive '%s' expects an int" p
  in
  let bool_of e =
    match e.desc with
    | Lit (LBool b) -> b
    | _ -> Diag.eval_error ?loc "step: primitive '%s' expects a bool" p
  in
  let i n = int ?loc n and b v = bool ?loc v in
  match (p, args) with
  | "iadd", [ x; y ] -> i (int_of x + int_of y)
  | "isub", [ x; y ] -> i (int_of x - int_of y)
  | "imult", [ x; y ] -> i (int_of x * int_of y)
  | "idiv", [ x; y ] ->
      if int_of y = 0 then Diag.eval_error ?loc "division by zero"
      else i (int_of x / int_of y)
  | "imod", [ x; y ] ->
      if int_of y = 0 then Diag.eval_error ?loc "modulo by zero"
      else i (int_of x mod int_of y)
  | "ineg", [ x ] -> i (-int_of x)
  | "imin", [ x; y ] -> i (min (int_of x) (int_of y))
  | "imax", [ x; y ] -> i (max (int_of x) (int_of y))
  | "ilt", [ x; y ] -> b (int_of x < int_of y)
  | "ile", [ x; y ] -> b (int_of x <= int_of y)
  | "igt", [ x; y ] -> b (int_of x > int_of y)
  | "ige", [ x; y ] -> b (int_of x >= int_of y)
  | "ieq", [ x; y ] -> b (int_of x = int_of y)
  | "ineq", [ x; y ] -> b (int_of x <> int_of y)
  | "band", [ x; y ] -> b (bool_of x && bool_of y)
  | "bor", [ x; y ] -> b (bool_of x || bool_of y)
  | "bnot", [ x ] -> b (not (bool_of x))
  | "beq", [ x; y ] -> b (bool_of x = bool_of y)
  | "car", [ ls ] -> (
      match read_list ls with
      | Some (hd :: _) -> hd
      | Some [] -> Diag.eval_error ?loc "car of empty list"
      | None -> Diag.eval_error ?loc "step: car of non-list")
  | "cdr", [ ls ] -> (
      match (read_list ls, list_elt_ty ls) with
      | Some (_ :: tl), Some t -> build_list ~loc:Loc.dummy t tl
      | Some [], _ -> Diag.eval_error ?loc "cdr of empty list"
      | _ -> Diag.eval_error ?loc "step: cdr of non-list")
  | "null", [ ls ] -> (
      match read_list ls with
      | Some [] -> b true
      | Some _ -> b false
      | None -> Diag.eval_error ?loc "step: null of non-list")
  | "length", [ ls ] -> (
      match read_list ls with
      | Some xs -> i (List.length xs)
      | None -> Diag.eval_error ?loc "step: length of non-list")
  | "append", [ xs; ys ] -> (
      match (read_list xs, read_list ys, list_elt_ty xs, list_elt_ty ys) with
      | Some a, Some c, t1, t2 -> (
          match (t1, t2) with
          | Some t, _ | None, Some t -> build_list ~loc:Loc.dummy t (a @ c)
          | None, None -> Diag.eval_error ?loc "step: append of non-lists")
      | _ -> Diag.eval_error ?loc "step: append of non-lists")
  | _ -> Diag.eval_error ?loc "step: no delta rule for '%s'" p

(* ---------------------------------------------------------------- *)
(* One step                                                           *)

let rec step (e : exp) : exp option =
  let loc = e.loc in
  if is_value e then None
  else
    match e.desc with
    | Var x -> Diag.eval_error ~loc "step: free variable '%s'" x
    | Lit _ | Prim _ | Abs _ | TyAbs _ -> None
    | App (f, args) -> (
        match step f with
        | Some f' -> Some (app ~loc f' args)
        | None -> (
            (* step the leftmost non-value argument *)
            match step_first args with
            | Some args' -> Some (app ~loc f args')
            | None -> (
                match f.desc with
                | Abs (params, body) ->
                    if List.length params <> List.length args then
                      Diag.eval_error ~loc "step: arity mismatch"
                    else
                      Some
                        (List.fold_left2
                           (fun acc (x, _) v -> subst x v acc)
                           body params args)
                | _ -> (
                    match prim_spine e with
                    | Some (p, all_args) -> (
                        match Prims.lookup p with
                        | Some info when List.length all_args = info.arity ->
                            Some (delta ~loc p all_args)
                        | _ ->
                            Diag.eval_error ~loc
                              "step: application of non-function")
                    | None ->
                        Diag.eval_error ~loc
                          "step: application of non-function"))))
    | TyApp (f, tys) -> (
        match step f with
        | Some f' -> Some (tyapp ~loc f' tys)
        | None -> (
            match f.desc with
            | TyAbs (tvs, body) ->
                if List.length tvs <> List.length tys then
                  Diag.eval_error ~loc "step: type arity mismatch"
                else
                  Some
                    (subst_ty_exp
                       (List.fold_left2
                          (fun m a t -> Smap.add a t m)
                          Smap.empty tvs tys)
                       body)
            | _ -> Diag.eval_error ~loc "step: type application of non-Λ"))
    | Let (x, rhs, body) -> (
        match step rhs with
        | Some rhs' -> Some (let_ ~loc x rhs' body)
        | None -> Some (subst x rhs body))
    | Tuple es -> (
        match step_first es with
        | Some es' -> Some (tuple ~loc es')
        | None -> None)
    | Nth (e0, k) -> (
        match step e0 with
        | Some e0' -> Some (nth ~loc e0' k)
        | None -> (
            match e0.desc with
            | Tuple vs when k >= 0 && k < List.length vs ->
                Some (List.nth vs k)
            | _ -> Diag.eval_error ~loc "step: nth of non-tuple"))
    | Fix (x, t, body) ->
        (* unfold: fix x. e  →  [x := fix x. e] e *)
        Some (subst x (fix ~loc x t body) body)
    | If (c, t, f) -> (
        match step c with
        | Some c' -> Some (if_ ~loc c' t f)
        | None -> (
            match c.desc with
            | Lit (LBool true) -> Some t
            | Lit (LBool false) -> Some f
            | _ -> Diag.eval_error ~loc "step: if on non-bool"))

and step_first (es : exp list) : exp list option =
  match es with
  | [] -> None
  | e :: rest -> (
      match step e with
      | Some e' -> Some (e' :: rest)
      | None -> Option.map (fun rest' -> e :: rest') (step_first rest))

(* ---------------------------------------------------------------- *)
(* Multi-step                                                         *)

(** Reduce to a value; returns the normal form and the number of steps
    taken.  Raises on stuck terms or fuel exhaustion. *)
let normalize ?(fuel = 1_000_000) (e : exp) : exp * int =
  let rec go e n fuel =
    if fuel <= 0 then
      Diag.eval_error ~loc:e.loc "small-step fuel exhausted after %d steps" n
    else
      match step e with
      | None ->
          if is_value e then (e, n)
          else Diag.eval_error ~loc:e.loc "small-step: stuck term"
      | Some e' -> go e' (n + 1) (fuel - 1)
  in
  go e 0 fuel

(** Convert a first-order normal form to a big-step {!Eval.value} for
    comparison; function-like values become closures only structurally
    comparable as "some function", so they are mapped to a canonical
    dummy primitive value. *)
let rec value_of_normal_form (e : exp) : Eval.value =
  match e.desc with
  | Lit (LInt n) -> Eval.VInt n
  | Lit (LBool b) -> Eval.VBool b
  | Lit LUnit -> Eval.VUnit
  | Tuple es -> Eval.VTuple (List.map value_of_normal_form es)
  | _ -> (
      match read_list e with
      | Some vs -> Eval.VList (List.map value_of_normal_form vs)
      | None ->
          if is_value e then Eval.VPrim ("<fun>", 1, [])
          else
            Diag.eval_error ~loc:e.loc
              "value_of_normal_form: not a normal form")

(** Big-step/small-step agreement on a closed program: evaluate both
    ways and compare first-order structure.  Returns the two step
    counts. *)
let check_agreement ?fuel (e : exp) : int * int =
  let v_big, steps_big = Eval.run ?fuel e in
  let nf, steps_small = normalize ?fuel e in
  let v_small = value_of_normal_form nf in
  let rec flat_eq (a : Eval.value) (b : Eval.value) =
    match (a, b) with
    | Eval.VInt x, Eval.VInt y -> x = y
    | Eval.VBool x, Eval.VBool y -> x = y
    | Eval.VUnit, Eval.VUnit -> true
    | Eval.VTuple xs, Eval.VTuple ys | Eval.VList xs, Eval.VList ys ->
        List.length xs = List.length ys && List.for_all2 flat_eq xs ys
    | (Eval.VClos _ | Eval.VTyClos _ | Eval.VPrim _),
      (Eval.VClos _ | Eval.VTyClos _ | Eval.VPrim _) ->
        true (* both functions: structurally incomparable, accept *)
    | _ -> false
  in
  if not (flat_eq v_big v_small) then
    Diag.eval_error ~loc:e.loc
      "big-step (%s) and small-step (%s) disagree"
      (Eval.value_to_string v_big)
      (Eval.value_to_string v_small);
  (steps_big, steps_small)
