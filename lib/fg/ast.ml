(** Abstract syntax of System FG.

    This is the full language of paper Figure 11: System F extended with
    concepts, models, where clauses (Figure 4), plus associated types,
    same-type constraints and type aliases (Figure 11, gray additions).
    As in the System F substrate, we add base types, lists, tuples,
    [fix], [if] and primitive constants so the paper's example programs
    can be written directly.

    Conventions:
    - Concept names are capitalized ([Monoid]); type variables, term
      variables, member names and associated type names are lowercase.
    - Inside a concept declaration, the concept's type parameters, its
      own associated types, and the associated types of the concepts it
      refines are all in scope as plain type variables ([TVar]); they are
      resolved against the declaration during checking.
    - [TAssoc (c, tys, s)] is the qualified associated-type projection
      written [C<τ̄>.s] in the paper. *)

open Fg_util
module F = Fg_systemf.Ast

type base = F.base = TInt | TBool | TUnit

type ty =
  | TBase of base
  | TVar of string
  | TArrow of ty list * ty  (** [fn(τ1, ..., τn) -> τ] *)
  | TTuple of ty list
  | TList of ty
  | TAssoc of string * ty list * string  (** [C<τ̄>.s] *)
  | TForall of string list * constr list * ty
      (** [forall t̄ where constrs. τ]; the where clause may be empty *)

and constr =
  | CModel of string * ty list  (** [C<σ̄>] — a model requirement *)
  | CSame of ty * ty  (** [σ == τ] — a same-type constraint *)

type lit = F.lit = LInt of int | LBool of bool | LUnit

type exp = { desc : desc; loc : Loc.t }

and desc =
  | Var of string
  | Lit of lit
  | Prim of string
  | App of exp * exp list
  | Abs of (string * ty) list * exp
  | TyAbs of string list * constr list * exp
      (** [tfun t̄ where constrs => e] *)
  | TyApp of exp * ty list
  | Let of string * exp * exp
  | Tuple of exp list
  | Nth of exp * int
  | Fix of string * ty * exp
  | If of exp * exp * exp
  | Member of string * ty list * string  (** [C<τ̄>.x] — model member *)
  | ConceptDecl of concept_decl * exp  (** [concept C<t̄> {...} in e] *)
  | ModelDecl of model_decl * exp  (** [model C<τ̄> {...} in e] *)
  | Using of string * exp
      (** [using m in e] — activate the named model [m] for [e] *)
  | TypeAlias of string * ty * exp  (** [type t = τ in e] *)

and concept_decl = {
  c_name : string;
  c_params : string list;  (** [<t̄>] *)
  c_assoc : string list;  (** [types s̄;] — required associated types *)
  c_refines : (string * ty list) list;  (** [refines C'<σ̄>, ...;] *)
  c_requires : (string * ty list) list;
      (** nested requirements [require C'<σ̄>;] — constraints on the
          concept's associated types (Section 6 "nested requirements"),
          e.g. a Container's iterator must model Iterator.  Like
          refinement they contribute a nested dictionary and a proxy
          model, but not member names. *)
  c_members : (string * ty) list;  (** required operations [x : σ;] *)
  c_defaults : (string * exp) list;
      (** default member bodies [x : σ = e;] — the Section 6 "defaults
          for concept members" extension; a model lacking an explicit
          definition for [x] receives the default, instantiated at its
          types *)
  c_same : (ty * ty) list;  (** [same σ == τ;] requirements *)
  c_loc : Loc.t;
}

and model_decl = {
  m_name : string option;
      (** a NAMED model ([model m = C<τ̄> {...}], the Section 6 "named
          models" extension after Kahl and Scheffczyk): declared but not
          activated; brought into scope with [using m in e] *)
  m_params : string list;
      (** type parameters of a parameterized model, e.g. [<t>] in
          [model <t> where Eq<t> => Eq<list t> {...}] — the
          parameterized-instance extension the paper lists as future
          work (Section 6); empty for ordinary ground models *)
  m_constrs : constr list;
      (** the parameterized model's own requirements (its context) *)
  m_concept : string;
  m_args : ty list;  (** may mention [m_params] *)
  m_assoc : (string * ty) list;  (** [types s = τ;] assignments *)
  m_members : (string * exp) list;  (** member definitions [x = e;] *)
  m_loc : Loc.t;
}

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
let tyabs ?loc tvs constrs body = mk ?loc (TyAbs (tvs, constrs, body))
let tyapp ?loc f tys = mk ?loc (TyApp (f, tys))
let let_ ?loc x rhs body = mk ?loc (Let (x, rhs, body))
let tuple ?loc es = mk ?loc (Tuple es)
let nth ?loc e k = mk ?loc (Nth (e, k))
let fix ?loc x ty body = mk ?loc (Fix (x, ty, body))
let if_ ?loc c t e = mk ?loc (If (c, t, e))
let member ?loc c tys x = mk ?loc (Member (c, tys, x))
let concept_decl ?loc d e = mk ?loc (ConceptDecl (d, e))
let model_decl ?loc d e = mk ?loc (ModelDecl (d, e))
let using ?loc m e = mk ?loc (Using (m, e))
let type_alias ?loc t ty e = mk ?loc (TypeAlias (t, ty, e))

(* ------------------------------------------------------------------ *)
(* Free type variables and substitution                                *)

module Smap = Names.Smap
module Sset = Names.Sset

let rec ftv = function
  | TBase _ -> Sset.empty
  | TVar a -> Sset.singleton a
  | TArrow (args, ret) ->
      List.fold_left (fun acc t -> Sset.union acc (ftv t)) (ftv ret) args
  | TTuple ts ->
      List.fold_left (fun acc t -> Sset.union acc (ftv t)) Sset.empty ts
  | TList t -> ftv t
  | TAssoc (_, args, _) ->
      List.fold_left (fun acc t -> Sset.union acc (ftv t)) Sset.empty args
  | TForall (tvs, constrs, body) ->
      let inner =
        List.fold_left
          (fun acc c -> Sset.union acc (ftv_constr c))
          (ftv body) constrs
      in
      Sset.diff inner (Sset.of_list tvs)

and ftv_constr = function
  | CModel (_, args) ->
      List.fold_left (fun acc t -> Sset.union acc (ftv t)) Sset.empty args
  | CSame (a, b) -> Sset.union (ftv a) (ftv b)

(** Concept names appearing in a type — in where clauses and in
    associated-type projections.  This is the paper's [CV], used by the
    CPT rule's side condition [c ∉ CV(τ)] preventing a concept from
    escaping its lexical scope. *)
let rec concept_names = function
  | TBase _ | TVar _ -> Sset.empty
  | TArrow (args, ret) ->
      List.fold_left
        (fun acc t -> Sset.union acc (concept_names t))
        (concept_names ret) args
  | TTuple ts ->
      List.fold_left
        (fun acc t -> Sset.union acc (concept_names t))
        Sset.empty ts
  | TList t -> concept_names t
  | TAssoc (c, args, _) ->
      List.fold_left
        (fun acc t -> Sset.union acc (concept_names t))
        (Sset.singleton c) args
  | TForall (_, constrs, body) ->
      List.fold_left
        (fun acc cn -> Sset.union acc (constr_concept_names cn))
        (concept_names body) constrs

and constr_concept_names = function
  | CModel (c, args) ->
      List.fold_left
        (fun acc t -> Sset.union acc (concept_names t))
        (Sset.singleton c) args
  | CSame (a, b) -> Sset.union (concept_names a) (concept_names b)

(** Does a [forall] occur anywhere in the type?  Translating one draws
    fresh names, so {!Fg_core.Types} asks before it skips a
    translation. *)
let rec has_forall = function
  | TBase _ | TVar _ -> false
  | TArrow (args, ret) -> List.exists has_forall args || has_forall ret
  | TTuple ts | TAssoc (_, ts, _) -> List.exists has_forall ts
  | TList t -> has_forall t
  | TForall _ -> true

let rec freshen avoid x =
  if Sset.mem x avoid then freshen avoid (x ^ "'") else x

(** [map_shared f l] is [List.map f l] (left to right), except that it
    returns [l] itself when [f] returns every element unchanged, so an
    operation that changes nothing below a type allocates nothing. *)
let rec map_shared f l =
  match l with
  | [] -> l
  | x :: rest ->
      let x' = f x in
      let rest' = map_shared f rest in
      if x' == x && rest' == rest then l else x' :: rest'

(** Capture-avoiding simultaneous type substitution.  A type the
    substitution does not change comes back as itself. *)
let rec subst_ty (s : ty Smap.t) (t : ty) : ty =
  match t with
  | TBase _ -> t
  | TVar a -> ( match Smap.find_opt a s with Some u -> u | None -> t)
  | TArrow (args, ret) ->
      let args' = map_shared (subst_ty s) args in
      let ret' = subst_ty s ret in
      if args' == args && ret' == ret then t else TArrow (args', ret')
  | TTuple ts ->
      let ts' = map_shared (subst_ty s) ts in
      if ts' == ts then t else TTuple ts'
  | TList u ->
      let u' = subst_ty s u in
      if u' == u then t else TList u'
  | TAssoc (c, args, x) ->
      let args' = map_shared (subst_ty s) args in
      if args' == args then t else TAssoc (c, args', x)
  | TForall (tvs, constrs, body) ->
      let s = Smap.filter (fun a _ -> not (List.mem a tvs)) s in
      if Smap.is_empty s then t
      else
        let range_ftv =
          Smap.fold (fun _ u acc -> Sset.union acc (ftv u)) s Sset.empty
        in
        let inner_ftv =
          List.fold_left
            (fun acc c -> Sset.union acc (ftv_constr c))
            (ftv body) constrs
        in
        let avoid = ref (Sset.union range_ftv inner_ftv) in
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
        let body_r, constrs_r =
          if Smap.is_empty renaming then (body, constrs)
          else
            ( subst_ty renaming body,
              List.map (subst_constr renaming) constrs )
        in
        let constrs' = map_shared (subst_constr s) constrs_r in
        let body' = subst_ty s body_r in
        if Smap.is_empty renaming && constrs' == constrs && body' == body
        then t
        else TForall (tvs', constrs', body')

and subst_constr s c =
  match c with
  | CModel (n, args) ->
      let args' = map_shared (subst_ty s) args in
      if args' == args then c else CModel (n, args')
  | CSame (a, b) ->
      let a' = subst_ty s a in
      let b' = subst_ty s b in
      if a' == a && b' == b then c else CSame (a', b')

let subst_of_list pairs =
  List.fold_left (fun m (a, u) -> Smap.add a u m) Smap.empty pairs

let subst_ty_list pairs t =
  match pairs with [] -> t | _ -> subst_ty (subst_of_list pairs) t

let subst_constr_list pairs c =
  match pairs with [] -> c | _ -> subst_constr (subst_of_list pairs) c

(* ------------------------------------------------------------------ *)
(* Syntactic equality (alpha for foralls; no same-type reasoning)      *)

let ty_equal (a : ty) (b : ty) : bool =
  let rec go la lb depth a b =
    (* Pointer fast path: physically equal subtrees are structurally
       identical, so they are alpha-equal whenever both sides resolve
       bound variables through the same (physical) renaming. *)
    if a == b && la == lb then true
    else
      match (a, b) with
    | TBase x, TBase y -> x = y
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
        List.length xs = List.length ys && List.for_all2 (go la lb depth) xs ys
    | TList x, TList y -> go la lb depth x y
    | TAssoc (c, xs, sx), TAssoc (d, ys, sy) ->
        String.equal c d && String.equal sx sy
        && List.length xs = List.length ys
        && List.for_all2 (go la lb depth) xs ys
    | TForall (xs, cs, x), TForall (ys, ds, y) ->
        List.length xs = List.length ys
        && List.length cs = List.length ds
        &&
        let la, lb, depth =
          List.fold_left2
            (fun (la, lb, d) xv yv ->
              (Smap.add xv d la, Smap.add yv d lb, d + 1))
            (la, lb, depth) xs ys
        in
        List.for_all2 (go_constr la lb depth) cs ds && go la lb depth x y
    | _ -> false
  and go_constr la lb depth c d =
    match (c, d) with
    | CModel (cn, xs), CModel (dn, ys) ->
        String.equal cn dn
        && List.length xs = List.length ys
        && List.for_all2 (go la lb depth) xs ys
    | CSame (x1, x2), CSame (y1, y2) ->
        go la lb depth x1 y1 && go la lb depth x2 y2
    | _ -> false
  in
  go Smap.empty Smap.empty 0 a b

let constr_equal a b =
  match (a, b) with
  | CModel (c, xs), CModel (d, ys) ->
      String.equal c d && List.length xs = List.length ys
      && List.for_all2 ty_equal xs ys
  | CSame (x1, x2), CSame (y1, y2) -> ty_equal x1 y1 && ty_equal x2 y2
  | _ -> false

let rec ty_size = function
  | TBase _ | TVar _ -> 1
  | TArrow (args, ret) ->
      1 + List.fold_left (fun acc t -> acc + ty_size t) (ty_size ret) args
  | TTuple ts | TAssoc (_, ts, _) ->
      1 + List.fold_left (fun acc t -> acc + ty_size t) 0 ts
  | TList t -> 1 + ty_size t
  | TForall (tvs, constrs, body) ->
      1 + List.length tvs + ty_size body
      + List.fold_left (fun acc c -> acc + constr_size c) 0 constrs

and constr_size = function
  | CModel (_, args) ->
      1 + List.fold_left (fun acc t -> acc + ty_size t) 0 args
  | CSame (a, b) -> 1 + ty_size a + ty_size b

(* ------------------------------------------------------------------ *)
(* Type substitution through expressions (used by the interpreter's
   type application and by the random-program shrinker)                *)

let rec subst_ty_exp (s : ty Smap.t) (e : exp) : exp =
  let sub = subst_ty s in
  let desc =
    match e.desc with
    | (Var _ | Lit _ | Prim _) as d -> d
    | App (f, args) -> App (subst_ty_exp s f, List.map (subst_ty_exp s) args)
    | Abs (params, body) ->
        Abs (List.map (fun (x, t) -> (x, sub t)) params, subst_ty_exp s body)
    | TyAbs (tvs, constrs, body) ->
        let s = Smap.filter (fun a _ -> not (List.mem a tvs)) s in
        TyAbs (tvs, List.map (subst_constr s) constrs, subst_ty_exp s body)
    | TyApp (f, tys) -> TyApp (subst_ty_exp s f, List.map sub tys)
    | Let (x, rhs, body) -> Let (x, subst_ty_exp s rhs, subst_ty_exp s body)
    | Tuple es -> Tuple (List.map (subst_ty_exp s) es)
    | Nth (e0, k) -> Nth (subst_ty_exp s e0, k)
    | Fix (x, t, body) -> Fix (x, sub t, subst_ty_exp s body)
    | If (c, t, f) -> If (subst_ty_exp s c, subst_ty_exp s t, subst_ty_exp s f)
    | Member (c, tys, x) -> Member (c, List.map sub tys, x)
    | ConceptDecl (d, body) ->
        (* The concept's parameters and associated-type names shadow. *)
        let bound = d.c_params @ c_assoc_transitive_names d in
        let s' = Smap.filter (fun a _ -> not (List.mem a bound)) s in
        let d' =
          {
            d with
            c_refines = List.map (fun (c, ts) -> (c, List.map (subst_ty s') ts)) d.c_refines;
            c_requires = List.map (fun (c, ts) -> (c, List.map (subst_ty s') ts)) d.c_requires;
            c_members = List.map (fun (x, t) -> (x, subst_ty s' t)) d.c_members;
            c_defaults =
              List.map (fun (x, e) -> (x, subst_ty_exp s' e)) d.c_defaults;
            c_same = List.map (fun (a, b) -> (subst_ty s' a, subst_ty s' b)) d.c_same;
          }
        in
        ConceptDecl (d', subst_ty_exp s body)
    | ModelDecl (d, body) ->
        (* the model's own parameters shadow *)
        let s' = Smap.filter (fun a _ -> not (List.mem a d.m_params)) s in
        let sub' = subst_ty s' in
        let d' =
          {
            d with
            m_constrs = List.map (subst_constr s') d.m_constrs;
            m_args = List.map sub' d.m_args;
            m_assoc = List.map (fun (x, t) -> (x, sub' t)) d.m_assoc;
            m_members =
              List.map (fun (x, e) -> (x, subst_ty_exp s' e)) d.m_members;
          }
        in
        ModelDecl (d', subst_ty_exp s body)
    | Using (m, body) -> Using (m, subst_ty_exp s body)
    | TypeAlias (t, ty, body) ->
        let s' = Smap.remove t s in
        TypeAlias (t, sub ty, subst_ty_exp s' body)
  in
  if desc == e.desc then e else { e with desc }

(* Names bound inside a concept body: its own associated types.  (The
   associated types of refined concepts are resolved during checking,
   not bound here; refinement argument types are in the *outer* scope
   extended with params and own assoc names.) *)
and c_assoc_transitive_names d = d.c_assoc

let rec exp_size e =
  match e.desc with
  | Var _ | Lit _ | Prim _ -> 1
  | App (f, args) ->
      1 + List.fold_left (fun acc a -> acc + exp_size a) (exp_size f) args
  | Abs (_, body) | TyAbs (_, _, body) | Fix (_, _, body) -> 1 + exp_size body
  | TyApp (f, _) -> 1 + exp_size f
  | Let (_, rhs, body) -> 1 + exp_size rhs + exp_size body
  | Tuple es -> 1 + List.fold_left (fun acc a -> acc + exp_size a) 0 es
  | Nth (e0, _) -> 1 + exp_size e0
  | If (c, t, f) -> 1 + exp_size c + exp_size t + exp_size f
  | Member _ -> 1
  | ConceptDecl (_, body) | Using (_, body) -> 1 + exp_size body
  | ModelDecl (d, body) ->
      1
      + List.fold_left (fun acc (_, e) -> acc + exp_size e) 0 d.m_members
      + exp_size body
  | TypeAlias (_, _, body) -> 1 + exp_size body

(* Structural equality of expressions ignoring locations (alpha only
   through [ty_equal] on embedded foralls; binders are compared by
   name, which is what a pretty→parse round trip preserves). *)
let rec exp_equal (a : exp) (b : exp) : bool =
  let list_eq eq xs ys =
    List.length xs = List.length ys && List.for_all2 eq xs ys
  in
  let pair_eq eqa eqb (x1, y1) (x2, y2) = eqa x1 x2 && eqb y1 y2 in
  let capp_eq = pair_eq String.equal (list_eq ty_equal) in
  match (a.desc, b.desc) with
  | Var x, Var y -> String.equal x y
  | Lit x, Lit y -> x = y
  | Prim x, Prim y -> String.equal x y
  | App (f1, a1), App (f2, a2) -> exp_equal f1 f2 && list_eq exp_equal a1 a2
  | Abs (p1, b1), Abs (p2, b2) ->
      list_eq (pair_eq String.equal ty_equal) p1 p2 && exp_equal b1 b2
  | TyAbs (v1, c1, b1), TyAbs (v2, c2, b2) ->
      list_eq String.equal v1 v2 && list_eq constr_equal c1 c2
      && exp_equal b1 b2
  | TyApp (f1, t1), TyApp (f2, t2) -> exp_equal f1 f2 && list_eq ty_equal t1 t2
  | Let (x1, r1, b1), Let (x2, r2, b2) ->
      String.equal x1 x2 && exp_equal r1 r2 && exp_equal b1 b2
  | Tuple e1, Tuple e2 -> list_eq exp_equal e1 e2
  | Nth (e1, k1), Nth (e2, k2) -> exp_equal e1 e2 && k1 = k2
  | Fix (x1, t1, b1), Fix (x2, t2, b2) ->
      String.equal x1 x2 && ty_equal t1 t2 && exp_equal b1 b2
  | If (c1, t1, f1), If (c2, t2, f2) ->
      exp_equal c1 c2 && exp_equal t1 t2 && exp_equal f1 f2
  | Member (c1, a1, x1), Member (c2, a2, x2) ->
      String.equal c1 c2 && list_eq ty_equal a1 a2 && String.equal x1 x2
  | ConceptDecl (d1, b1), ConceptDecl (d2, b2) ->
      String.equal d1.c_name d2.c_name
      && list_eq String.equal d1.c_params d2.c_params
      && list_eq String.equal d1.c_assoc d2.c_assoc
      && list_eq capp_eq d1.c_refines d2.c_refines
      && list_eq capp_eq d1.c_requires d2.c_requires
      && list_eq (pair_eq String.equal ty_equal) d1.c_members d2.c_members
      && list_eq (pair_eq String.equal exp_equal) d1.c_defaults d2.c_defaults
      && list_eq (pair_eq ty_equal ty_equal) d1.c_same d2.c_same
      && exp_equal b1 b2
  | ModelDecl (d1, b1), ModelDecl (d2, b2) ->
      Option.equal String.equal d1.m_name d2.m_name
      && list_eq String.equal d1.m_params d2.m_params
      && list_eq constr_equal d1.m_constrs d2.m_constrs
      && String.equal d1.m_concept d2.m_concept
      && list_eq ty_equal d1.m_args d2.m_args
      && list_eq (pair_eq String.equal ty_equal) d1.m_assoc d2.m_assoc
      && list_eq (pair_eq String.equal exp_equal) d1.m_members d2.m_members
      && exp_equal b1 b2
  | Using (m1, b1), Using (m2, b2) -> String.equal m1 m2 && exp_equal b1 b2
  | TypeAlias (t1, ty1, b1), TypeAlias (t2, ty2, b2) ->
      String.equal t1 t2 && ty_equal ty1 ty2 && exp_equal b1 b2
  | _ -> false
