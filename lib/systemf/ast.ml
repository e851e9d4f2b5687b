(** Abstract syntax of System F, the target of the FG translation.

    This is the calculus of paper Figure 2: the polymorphic lambda
    calculus with multi-parameter functions and type abstractions (used
    to ease the translation), tuples with [nth] projection (used as
    dictionaries), [let], and a [fix] form for the recursion the paper
    writes as [μx] in Figures 3 and 5.  Base types, lists and primitive
    operations ([iadd], [car], ...) stand in for the ambient constants
    the paper assumes. *)

open Fg_util

type base = TInt | TBool | TUnit

type ty =
  | TBase of base
  | TVar of string
  | TArrow of ty list * ty  (** [fn(t1, ..., tn) -> t] *)
  | TTuple of ty list  (** [t1 * ... * tk]; dictionaries *)
  | TList of ty
  | TForall of string list * ty  (** [forall t1 ... tn. t] *)

type lit = LInt of int | LBool of bool | LUnit

type exp = { desc : desc; loc : Loc.t }

and desc =
  | Var of string
  | Lit of lit
  | Prim of string  (** built-in constant, see {!Prims} *)
  | App of exp * exp list
  | Abs of (string * ty) list * exp
  | TyAbs of string list * exp
  | TyApp of exp * ty list
  | Let of string * exp * exp
  | Tuple of exp list
  | Nth of exp * int  (** [nth e k], 0-based projection *)
  | Fix of string * ty * exp  (** [fix (x : t) => e]; CBV recursion *)
  | If of exp * exp * exp

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)

let mk ?(loc = Loc.dummy) desc = { desc; loc }
let var ?loc x = mk ?loc (Var x)
let lit ?loc l = mk ?loc (Lit l)
let int ?loc n = lit ?loc (LInt n)
let bool ?loc b = lit ?loc (LBool b)
let unit ?loc () = lit ?loc LUnit
let prim ?loc p = mk ?loc (Prim p)
let app ?loc f args = mk ?loc (App (f, args))
let abs ?loc params body = mk ?loc (Abs (params, body))
let tyabs ?loc tvs body = mk ?loc (TyAbs (tvs, body))
let tyapp ?loc f tys = mk ?loc (TyApp (f, tys))
let let_ ?loc x rhs body = mk ?loc (Let (x, rhs, body))
let tuple ?loc es = mk ?loc (Tuple es)
let nth ?loc e k = mk ?loc (Nth (e, k))
let fix ?loc x ty body = mk ?loc (Fix (x, ty, body))
let if_ ?loc c t e = mk ?loc (If (c, t, e))

(** [nth_path e [n1; ...; nk]] builds [(nth ... (nth e n1) ... nk)] —
    the dictionary-path projections of the paper's MEM and TAPP rules. *)
let nth_path ?loc e path = List.fold_left (fun acc k -> nth ?loc acc k) e path

(* ------------------------------------------------------------------ *)
(* Type operations                                                     *)

let base_equal (a : base) (b : base) = a = b

module Sset = Names.Sset
module Smap = Names.Smap

(* The FG translation builds a where clause's dictionary types as a
   DAG: a refinement diamond's base dictionary is one tuple, shared by
   every path that reaches it.  The walks below remember the tuples they
   have finished — physically, and under the same binder context — so
   they cost the size of the DAG, not of the tree it unfolds to. *)
let ftv t =
  let seen = ref [] in
  let rec go t =
    match t with
    | TBase _ -> Sset.empty
    | TVar a -> Sset.singleton a
    | TArrow (args, ret) ->
        List.fold_left (fun acc t -> Sset.union acc (go t)) (go ret) args
    | TTuple ts -> (
        match List.assq_opt t !seen with
        | Some r -> r
        | None ->
            let r =
              List.fold_left (fun acc t -> Sset.union acc (go t)) Sset.empty ts
            in
            seen := (t, r) :: !seen;
            r)
    | TList t -> go t
    | TForall (tvs, body) -> Sset.diff (go body) (Sset.of_list tvs)
  in
  go t

(** Fresh variant of [x] avoiding [avoid]. *)
let rec freshen avoid x =
  if Sset.mem x avoid then freshen avoid (x ^ "'") else x

(** Capture-avoiding simultaneous substitution of types for type
    variables.  A tuple shared in [t] is substituted once and stays
    shared in the result. *)
let subst_ty (s : ty Smap.t) (t : ty) : ty =
  let seen = ref [] in
  let rec go s t =
    match t with
    | TBase _ -> t
    | TVar a -> ( match Smap.find_opt a s with Some u -> u | None -> t)
    | TArrow (args, ret) -> TArrow (List.map (go s) args, go s ret)
    | TTuple ts -> (
        match
          List.find_map
            (fun (s', t', r) -> if t' == t && s' == s then Some r else None)
            !seen
        with
        | Some r -> r
        | None ->
            let r = TTuple (List.map (go s) ts) in
            seen := (s, t, r) :: !seen;
            r)
    | TList t -> TList (go s t)
    | TForall (tvs, body) ->
        (* Drop shadowed bindings, then rename binders that would capture. *)
        let s = Smap.filter (fun a _ -> not (List.mem a tvs)) s in
        if Smap.is_empty s then TForall (tvs, body)
        else
          let range_ftv =
            Smap.fold (fun _ u acc -> Sset.union acc (ftv u)) s Sset.empty
          in
          let avoid = ref (Sset.union range_ftv (ftv body)) in
          let renaming, tvs' =
            List.fold_left_map
              (fun ren a ->
                if Sset.mem a range_ftv then begin
                  let a' = freshen !avoid a in
                  avoid := Sset.add a' !avoid;
                  (Smap.add a (TVar a') ren, a')
                end
                else (ren, a))
              Smap.empty tvs
          in
          let body = if Smap.is_empty renaming then body else go renaming body in
          TForall (tvs', go s body)
  in
  go s t

let subst_ty_list pairs t =
  subst_ty (List.fold_left (fun m (a, u) -> Smap.add a u m) Smap.empty pairs) t

(** Alpha-equivalence of types.  The translation generates fresh binder
    names, so syntactic comparison is too strict; Theorem checking
    compares the F type of a translated term against the translated FG
    type up to alpha. *)
let alpha_equal (a : ty) (b : ty) : bool =
  (* Map each side's binders to shared canonical indices.  Physically
     equal subterms are equal when both sides resolve bound variables
     through the same (physical) maps, and a pair of tuples already
     found equal under the same maps is not compared again: any
     mismatch ends the whole comparison, so only successes need
     remembering. *)
  let equal_tuples = ref [] in
  let rec go (la : int Smap.t) (lb : int Smap.t) depth a b =
    (a == b && la == lb)
    ||
    match (a, b) with
    | TBase x, TBase y -> base_equal x y
    | TVar x, TVar y -> (
        match (Smap.find_opt x la, Smap.find_opt y lb) with
        | Some i, Some j -> i = j
        | None, None -> String.equal x y
        | _ -> false)
    | TArrow (xs, x), TArrow (ys, y) ->
        List.length xs = List.length ys
        && List.for_all2 (go la lb depth) xs ys
        && go la lb depth x y
    | TTuple xs, TTuple ys ->
        List.exists
          (fun (la', lb', x, y) -> x == a && y == b && la' == la && lb' == lb)
          !equal_tuples
        || List.length xs = List.length ys
           && List.for_all2 (go la lb depth) xs ys
           && (equal_tuples := (la, lb, a, b) :: !equal_tuples;
               true)
    | TList x, TList y -> go la lb depth x y
    | TForall (xs, x), TForall (ys, y) ->
        List.length xs = List.length ys
        &&
        let la, lb, depth =
          List.fold_left2
            (fun (la, lb, d) xv yv -> (Smap.add xv d la, Smap.add yv d lb, d + 1))
            (la, lb, depth) xs ys
        in
        go la lb depth x y
    | _ -> false
  in
  go Smap.empty Smap.empty 0 a b

let rec ty_size = function
  | TBase _ | TVar _ -> 1
  | TArrow (args, ret) ->
      1 + List.fold_left (fun acc t -> acc + ty_size t) (ty_size ret) args
  | TTuple ts -> 1 + List.fold_left (fun acc t -> acc + ty_size t) 0 ts
  | TList t -> 1 + ty_size t
  | TForall (tvs, body) -> 1 + List.length tvs + ty_size body

(* ------------------------------------------------------------------ *)
(* Expression helpers                                                  *)

let rec exp_size e =
  match e.desc with
  | Var _ | Lit _ | Prim _ -> 1
  | App (f, args) ->
      1 + List.fold_left (fun acc a -> acc + exp_size a) (exp_size f) args
  | Abs (_, body) -> 1 + exp_size body
  | TyAbs (_, body) -> 1 + exp_size body
  | TyApp (f, _) -> 1 + exp_size f
  | Let (_, rhs, body) -> 1 + exp_size rhs + exp_size body
  | Tuple es -> 1 + List.fold_left (fun acc a -> acc + exp_size a) 0 es
  | Nth (e, _) -> 1 + exp_size e
  | Fix (_, _, body) -> 1 + exp_size body
  | If (c, t, e) -> 1 + exp_size c + exp_size t + exp_size e

(** Structural equality of expressions, ignoring locations.  (Not up to
    alpha; used by tests on deterministic pipeline output.) *)
let rec exp_equal (a : exp) (b : exp) =
  match (a.desc, b.desc) with
  | Var x, Var y -> String.equal x y
  | Lit x, Lit y -> x = y
  | Prim x, Prim y -> String.equal x y
  | App (f, xs), App (g, ys) ->
      exp_equal f g && List.length xs = List.length ys
      && List.for_all2 exp_equal xs ys
  | Abs (ps, x), Abs (qs, y) ->
      List.length ps = List.length qs
      && List.for_all2
           (fun (p, t) (q, u) -> String.equal p q && alpha_equal t u)
           ps qs
      && exp_equal x y
  | TyAbs (ts, x), TyAbs (us, y) -> ts = us && exp_equal x y
  | TyApp (f, ts), TyApp (g, us) ->
      exp_equal f g && List.length ts = List.length us
      && List.for_all2 alpha_equal ts us
  | Let (x, r1, b1), Let (y, r2, b2) ->
      String.equal x y && exp_equal r1 r2 && exp_equal b1 b2
  | Tuple xs, Tuple ys ->
      List.length xs = List.length ys && List.for_all2 exp_equal xs ys
  | Nth (x, i), Nth (y, j) -> i = j && exp_equal x y
  | Fix (x, t, b1), Fix (y, u, b2) ->
      String.equal x y && alpha_equal t u && exp_equal b1 b2
  | If (c1, t1, e1), If (c2, t2, e2) ->
      exp_equal c1 c2 && exp_equal t1 t2 && exp_equal e1 e2
  | _ -> false

(** Free term variables of an expression. *)
let rec free_vars e =
  match e.desc with
  | Var x -> Sset.singleton x
  | Lit _ | Prim _ -> Sset.empty
  | App (f, args) ->
      List.fold_left
        (fun acc a -> Sset.union acc (free_vars a))
        (free_vars f) args
  | Abs (params, body) ->
      Sset.diff (free_vars body) (Sset.of_list (List.map fst params))
  | TyAbs (_, body) -> free_vars body
  | TyApp (f, _) -> free_vars f
  | Let (x, rhs, body) ->
      Sset.union (free_vars rhs) (Sset.remove x (free_vars body))
  | Tuple es ->
      List.fold_left (fun acc a -> Sset.union acc (free_vars a)) Sset.empty es
  | Nth (e0, _) -> free_vars e0
  | Fix (x, _, body) -> Sset.remove x (free_vars body)
  | If (c, t, f) ->
      Sset.union (free_vars c) (Sset.union (free_vars t) (free_vars f))

(** Capture-avoiding simultaneous substitution of expressions for term
    variables.  Binders that would capture a free variable of an image
    are renamed (the specializing backend substitutes dictionary
    atoms — spine-level names — under user-named lambdas). *)
let subst_exp (s0 : exp Smap.t) (e0 : exp) : exp =
  let range_fv s =
    Smap.fold (fun _ img acc -> Sset.union acc (free_vars img)) s Sset.empty
  in
  let rec go s e =
    if Smap.is_empty s then e
    else
      (* Refresh binder list [xs] against the live substitution: drop
         shadowed entries, rename binders that would capture an image
         variable.  Returns the adjusted substitution and binders. *)
      let binders s xs body =
        let s = Smap.filter (fun x _ -> not (List.mem x xs)) s in
        if Smap.is_empty s then (s, xs)
        else
          let rfv = range_fv s in
          let avoid =
            ref
              (Sset.union rfv
                 (Sset.union (free_vars body) (Sset.of_list xs)))
          in
          List.fold_left_map
            (fun s x ->
              if Sset.mem x rfv then begin
                let x' = freshen !avoid x in
                avoid := Sset.add x' !avoid;
                (Smap.add x (var x') s, x')
              end
              else (s, x))
            s xs
      in
      let desc =
        match e.desc with
        | Var x -> (
            match Smap.find_opt x s with
            | Some img -> img.desc
            | None -> e.desc)
        | (Lit _ | Prim _) as d -> d
        | App (f, args) -> App (go s f, List.map (go s) args)
        | Abs (params, body) ->
            let s', names = binders s (List.map fst params) body in
            let params' =
              List.map2 (fun (_, t) x -> (x, t)) params names
            in
            Abs (params', go s' body)
        | TyAbs (tvs, body) -> TyAbs (tvs, go s body)
        | TyApp (f, tys) -> TyApp (go s f, tys)
        | Let (x, rhs, body) ->
            let s', names = binders s [ x ] body in
            let x' = List.hd names in
            Let (x', go s rhs, go s' body)
        | Tuple es -> Tuple (List.map (go s) es)
        | Nth (e1, k) -> Nth (go s e1, k)
        | Fix (x, t, body) ->
            let s', names = binders s [ x ] body in
            Fix (List.hd names, t, go s' body)
        | If (c, t, f) -> If (go s c, go s t, go s f)
      in
      { e with desc }
  in
  go s0 e0

(** Substitute types for type variables throughout an expression
    (needed by type application in the substitution-based small-step
    semantics). *)
let rec subst_ty_exp (s : ty Smap.t) (e : exp) : exp =
  let sub = subst_ty s in
  let desc =
    match e.desc with
    | (Var _ | Lit _ | Prim _) as d -> d
    | App (f, args) ->
        App (subst_ty_exp s f, List.map (subst_ty_exp s) args)
    | Abs (params, body) ->
        Abs (List.map (fun (x, t) -> (x, sub t)) params, subst_ty_exp s body)
    | TyAbs (tvs, body) ->
        let s = Smap.filter (fun a _ -> not (List.mem a tvs)) s in
        TyAbs (tvs, subst_ty_exp s body)
    | TyApp (f, tys) -> TyApp (subst_ty_exp s f, List.map sub tys)
    | Let (x, rhs, body) -> Let (x, subst_ty_exp s rhs, subst_ty_exp s body)
    | Tuple es -> Tuple (List.map (subst_ty_exp s) es)
    | Nth (e, k) -> Nth (subst_ty_exp s e, k)
    | Fix (x, t, body) -> Fix (x, sub t, subst_ty_exp s body)
    | If (c, t, e) ->
        If (subst_ty_exp s c, subst_ty_exp s t, subst_ty_exp s e)
  in
  { e with desc }
