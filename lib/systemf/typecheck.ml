(** Type checker for System F.

    The rules are the standard ones the paper omits ("we omit the type
    rules for System F as they are standard"), extended with the [let]
    rule the paper does give, plus tuples/[nth], [fix], [if], literals
    and primitives.  Types are compared up to alpha-equivalence.

    This checker is the verification half of the reproduction of the
    paper's Theorems 1 and 2: every term produced by the FG-to-F
    translation is re-checked here, and its type is compared against the
    translation of the FG type. *)

open Ast
open Fg_util
module Smap = Names.Smap
module Sset = Names.Sset

type env = { vars : ty Smap.t; tyvars : Sset.t }

let empty_env = { vars = Smap.empty; tyvars = Sset.empty }

let bind_var env x t = { env with vars = Smap.add x t env.vars }

let bind_tyvars env tvs =
  { env with tyvars = List.fold_left (fun s t -> Sset.add t s) env.tyvars tvs }

(** Well-formedness: every free type variable must be in scope. *)
let check_ty ?loc env t =
  let free = ftv t in
  match Sset.choose_opt (Sset.diff free env.tyvars) with
  | None -> ()
  | Some a -> Diag.type_error ?loc "unbound type variable '%s' in %s" a
                (Pretty.ty_to_string t)

let type_mismatch ?loc ~expected ~got what =
  Diag.type_error ?loc "%s: expected %s but got %s" what
    (Pretty.ty_to_string expected)
    (Pretty.ty_to_string got)

let rec typeof (env : env) (e : exp) : ty =
  let loc = e.loc in
  match e.desc with
  | Var x -> (
      match Smap.find_opt x env.vars with
      | Some t -> t
      | None -> Diag.type_error ~loc "unbound variable '%s'" x)
  | Lit (LInt _) -> TBase TInt
  | Lit (LBool _) -> TBase TBool
  | Lit LUnit -> TBase TUnit
  | Prim p -> (Prims.lookup_exn ~loc p).ty
  | App (f, args) -> (
      let tf = typeof env f in
      match tf with
      | TArrow (params, ret) ->
          if List.length params <> List.length args then
            Diag.type_error ~loc
              "function expects %d argument(s) but is applied to %d"
              (List.length params) (List.length args);
          List.iteri
            (fun i (param, arg) ->
              let ta = typeof env arg in
              if not (alpha_equal param ta) then
                type_mismatch ~loc:arg.loc ~expected:param ~got:ta
                  (Printf.sprintf "argument %d" (i + 1)))
            (List.combine params args);
          ret
      | _ ->
          Diag.type_error ~loc "applied expression has non-function type %s"
            (Pretty.ty_to_string tf))
  | Abs (params, body) ->
      let env' =
        List.fold_left
          (fun acc (x, t) ->
            check_ty ~loc env t;
            bind_var acc x t)
          env params
      in
      TArrow (List.map snd params, typeof env' body)
  | TyAbs (tvs, body) ->
      if not (Names.distinct tvs) then
        Diag.type_error ~loc "duplicate type parameter in type abstraction";
      TForall (tvs, typeof (bind_tyvars env tvs) body)
  | TyApp (f, tys) -> (
      List.iter (check_ty ~loc env) tys;
      match typeof env f with
      | TForall (tvs, body) ->
          if List.length tvs <> List.length tys then
            Diag.type_error ~loc
              "type abstraction expects %d type argument(s) but got %d"
              (List.length tvs) (List.length tys);
          subst_ty_list (List.combine tvs tys) body
      | t ->
          Diag.type_error ~loc
            "type-applied expression has non-polymorphic type %s"
            (Pretty.ty_to_string t))
  | Let (x, rhs, body) ->
      let trhs = typeof env rhs in
      typeof (bind_var env x trhs) body
  | Tuple es -> TTuple (List.map (typeof env) es)
  | Nth (e0, k) -> (
      match typeof env e0 with
      | TTuple ts when k >= 0 && k < List.length ts -> List.nth ts k
      | TTuple ts ->
          Diag.type_error ~loc "projection %d out of bounds for %d-tuple" k
            (List.length ts)
      | t ->
          Diag.type_error ~loc "nth applied to non-tuple type %s"
            (Pretty.ty_to_string t))
  | Fix (x, t, body) ->
      check_ty ~loc env t;
      let tb = typeof (bind_var env x t) body in
      if not (alpha_equal t tb) then
        type_mismatch ~loc ~expected:t ~got:tb "fix body";
      t
  | If (c, t, f) ->
      let tc = typeof env c in
      if not (alpha_equal tc (TBase TBool)) then
        type_mismatch ~loc:c.loc ~expected:(TBase TBool) ~got:tc
          "if condition";
      let tt = typeof env t and tf = typeof env f in
      if not (alpha_equal tt tf) then
        type_mismatch ~loc ~expected:tt ~got:tf "else branch";
      tt

(* A checked [let] prefix: the binders and right-hand sides of a
   term's leading [let]s, each paired with the environment after it.
   [typeof] is a pure function of environment and term, so a later
   term that starts with the same binders bound to the very same
   (physically identical) right-hand sides reaches each of those
   environments unchanged, and its check can resume after them.  A
   right-hand side that was rebuilt, even into an equal term, stops
   the resume: from there on the term is checked in full. *)
type prefix = (string * exp * env) list

let check_prefix ~hole e =
  let rec go env acc e =
    match e.desc with
    | Let (x, rhs, body) ->
        let env = bind_var env x (typeof env rhs) in
        go env ((x, rhs, env) :: acc) body
    | Var y when String.equal y hole -> List.rev acc
    | _ -> invalid_arg "Typecheck.check_prefix: the lets do not end at the hole"
  in
  go empty_env [] e

(** Check a closed program, resuming after the part of [prefix] it
    starts with. *)
let typecheck ?(prefix = []) e =
  let rec resume env prefix e =
    match (prefix, e.desc) with
    | (x, rhs, env') :: rest, Let (y, rhs', body)
      when rhs == rhs' && String.equal x y ->
        resume env' rest body
    | _ -> typeof env e
  in
  resume empty_env prefix e
