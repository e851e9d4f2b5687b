(** Direct big-step interpreter for System FG.

    The paper gives FG its semantics by translation to System F; this
    module gives FG a {e direct} operational semantics with runtime
    model dictionaries, so the two can be tested against each other: for
    every program in the corpus (and for generated programs), the value
    computed here must agree with the value computed by evaluating the
    translation in System F.

    Design notes:

    - Evaluation runs after type checking, so model resolution cannot
      fail for well-typed programs; failures here indicate a bug and are
      reported as runtime errors.
    - Type application substitutes the actual (closed) type arguments
      into the abstraction body, then resolves the instantiated model
      requirements against the {e application site's} model environment
      — the runtime mirror of FG's lexically scoped, call-site model
      lookup — and extends the closure's captured model environment with
      the resolved models.
    - Runtime types are closed, so type equality is syntactic equality
      after {!normalize_ty}, which resolves associated-type projections
      through the model environment. *)

open Ast
open Fg_util
module Smap = Names.Smap

(* A model scope's lookups, keyed on (concept, argument types).  The
   hash reads the whole of each type: [Hashtbl.hash] reads ten nodes at
   most, so it would give every [list^k int] past a small [k] one
   bucket. *)
module Lookups = Hashtbl.Make (struct
  type t = string * ty list

  let equal (c, args) (c', args') =
    String.equal c c' && compare args args' = 0

  let mix h x = (h * 31) + x

  let rec ty_hash h t =
    match t with
    | TBase _ | TVar _ | TForall _ -> mix h (Hashtbl.hash t)
    | TArrow (args, ret) -> List.fold_left ty_hash (ty_hash (mix h 1) ret) args
    | TTuple ts -> List.fold_left ty_hash (mix h 2) ts
    | TList t -> ty_hash (mix h 3) t
    | TAssoc (c, args, s) ->
        List.fold_left ty_hash (mix h (Hashtbl.hash (c, s))) args

  let hash (c, args) = List.fold_left ty_hash (Hashtbl.hash c) args
end)

type value =
  | VInt of int
  | VBool of bool
  | VUnit
  | VTuple of value list
  | VList of value list
  | VClos of renv * (string * ty) list * exp
  | VTyClos of renv * string list * constr list * exp
  | VPrim of string * int * value list

and renv = {
  venv : value option ref Smap.t;
  scope : scope;
  named : rmodel Smap.t;  (** named models, activated by [using] *)
  concepts : concept_decl Smap.t;
}

(* The models in scope, innermost first, and what {!find_model} has
   answered against them.  A scope's models never change and lookup
   spends no fuel, so each (concept, arguments) need be searched only
   once per scope: a parameterized chain is then matched once per level
   instead of re-validated below every level.  The memo is made when a
   search first validates a parameterized model's context (a scope
   whose lookups all end at ground models keeps none) and dies with the
   scope, so it lives no longer than its run. *)
and scope = {
  models : rmodel list;
  mutable lookups : (rmodel * (string * ty) list) option Lookups.t option;
}

and rmodel = {
  r_concept : string;
  r_params : string list;  (** parameterized model binders; [] if ground *)
  r_constrs : constr list;  (** a parameterized model's context *)
  r_args : ty list;  (** normalized and closed; patterns if parameterized *)
  r_assoc : (string * ty) list;
  r_impl : rimpl;
}

and rimpl =
  | RReady of (string * value) list  (** evaluated members (ground) *)
  | RDeferred of renv * (string * exp) list
      (** a parameterized model's captured environment and raw member
          bodies, instantiated per use *)

type state = { mutable fuel : int }

let default_fuel = 10_000_000

let value_kind = function
  | VInt _ -> "int"
  | VBool _ -> "bool"
  | VUnit -> "unit"
  | VTuple _ -> "tuple"
  | VList _ -> "list"
  | VClos _ | VPrim _ -> "function"
  | VTyClos _ -> "type abstraction"

let rec pp_value ppf = function
  | VInt n -> Fmt.int ppf n
  | VBool b -> Fmt.bool ppf b
  | VUnit -> Fmt.string ppf "()"
  | VTuple vs -> Fmt.pf ppf "(@[%a@])" (Pp_util.comma_sep pp_value) vs
  | VList vs -> Fmt.pf ppf "[@[%a@]]" (Pp_util.comma_sep pp_value) vs
  | VClos _ -> Fmt.string ppf "<fun>"
  | VTyClos _ -> Fmt.string ppf "<tyfun>"
  | VPrim (p, _, _) -> Fmt.pf ppf "<prim:%s>" p

let value_to_string v = Pp_util.to_string pp_value v

(* ---------------------------------------------------------------- *)
(* Flat first-order values: the common ground for differential tests
   between this interpreter and the System F evaluation of the
   translation.                                                      *)

type flat =
  | FlInt of int
  | FlBool of bool
  | FlUnit
  | FlTuple of flat list
  | FlList of flat list
  | FlFun  (** any function-like value; compares equal to itself *)

let rec flatten = function
  | VInt n -> FlInt n
  | VBool b -> FlBool b
  | VUnit -> FlUnit
  | VTuple vs -> FlTuple (List.map flatten vs)
  | VList vs -> FlList (List.map flatten vs)
  | VClos _ | VTyClos _ | VPrim _ -> FlFun

let rec flatten_f : Fg_systemf.Eval.value -> flat = function
  | Fg_systemf.Eval.VInt n -> FlInt n
  | VBool b -> FlBool b
  | VUnit -> FlUnit
  | VTuple vs -> FlTuple (List.map flatten_f vs)
  | VList vs -> FlList (List.map flatten_f vs)
  | VClos _ | VTyClos _ | VPrim _ -> FlFun

let rec pp_flat ppf = function
  | FlInt n -> Fmt.int ppf n
  | FlBool b -> Fmt.bool ppf b
  | FlUnit -> Fmt.string ppf "()"
  | FlTuple vs -> Fmt.pf ppf "(@[%a@])" (Pp_util.comma_sep pp_flat) vs
  | FlList vs -> Fmt.pf ppf "[@[%a@]]" (Pp_util.comma_sep pp_flat) vs
  | FlFun -> Fmt.string ppf "<fun>"

let flat_to_string v = Pp_util.to_string pp_flat v

let rec flat_equal a b =
  match (a, b) with
  | FlInt x, FlInt y -> x = y
  | FlBool x, FlBool y -> x = y
  | FlUnit, FlUnit -> true
  | FlTuple xs, FlTuple ys | FlList xs, FlList ys ->
      List.length xs = List.length ys && List.for_all2 flat_equal xs ys
  | FlFun, FlFun -> true
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Runtime type normalization and model lookup                       *)

let spend ?loc st =
  if st.fuel <= 0 then Diag.eval_error ?loc "evaluation fuel exhausted";
  st.fuel <- st.fuel - 1

let scope_of models = { models; lookups = None }

(* Resolve associated-type projections using the models in scope until
   the type is projection-free.  Runtime types are closed, so matching
   is syntactic after recursive normalization.  A projection-free type
   comes back as itself, not as a copy. *)
let rec normalize_ty ?loc (sc : scope) (t : ty) : ty =
  match t with
  | TBase _ | TVar _ -> t
  | TArrow (args, ret) ->
      let ret' = normalize_ty ?loc sc ret in
      let args' = map_shared (normalize_ty ?loc sc) args in
      if args' == args && ret' == ret then t else TArrow (args', ret')
  | TTuple ts ->
      let ts' = map_shared (normalize_ty ?loc sc) ts in
      if ts' == ts then t else TTuple ts'
  | TList u ->
      let u' = normalize_ty ?loc sc u in
      if u' == u then t else TList u'
  | TForall _ -> t (* runtime types under binders stay as-is *)
  | TAssoc (c, args, s) -> (
      let args' = map_shared (normalize_ty ?loc sc) args in
      match find_model ?loc sc c args' with
      | Some (m, subst) -> (
          match List.assoc_opt s m.r_assoc with
          | Some ty -> normalize_ty ?loc sc (subst_ty_list subst ty)
          | None ->
              Diag.eval_error ?loc
                "model of %s<...> has no associated type '%s' at runtime" c s)
      | None ->
          Diag.eval_error ?loc "no model of %s in scope at runtime"
            (Pretty.constr_to_string (CModel (c, args'))))

(* Find a model for [c<args>] ([args] closed); parameterized models
   match by one-way structural matching of their patterns, and their
   own requirements must resolve recursively.  Memoized per scope. *)
and find_model ?loc sc c args : (rmodel * (string * ty) list) option =
  let memoized =
    match sc.lookups with
    | Some memo -> Lookups.find_opt memo (c, args)
    | None -> None
  in
  match memoized with
  | Some r -> r
  | None ->
      let r = search_models ?loc sc c args in
      (match sc.lookups with
      | Some memo -> Lookups.replace memo (c, args) r
      | None -> ());
      r

and search_models ?loc sc c args =
  let args = map_shared (normalize_ty ?loc sc) args in
  List.find_map
    (fun m ->
      if not (String.equal m.r_concept c) then None
      else if m.r_params = [] then
        if
          List.length m.r_args = List.length args
          && List.for_all2 ty_equal m.r_args args
        then Some (m, [])
        else None
      else
        match match_patterns m.r_params m.r_args args with
        | None -> None
        | Some subst ->
            if Option.is_none sc.lookups then
              sc.lookups <- Some (Lookups.create 8);
            if
              List.for_all
                (function
                  | CModel (c', args') ->
                      find_model ?loc sc c'
                        (List.map (subst_ty_list subst) args')
                      <> None
                  | CSame (a, b) ->
                      ty_equal
                        (normalize_ty ?loc sc (subst_ty_list subst a))
                        (normalize_ty ?loc sc (subst_ty_list subst b)))
                m.r_constrs
            then Some (m, subst)
            else None)
    sc.models

(* One-way structural matching of closed argument types against a
   parameterized model's patterns. *)
and match_patterns params pats args : (string * ty) list option =
  let rec go subst pat arg =
    match (pat, arg) with
    | TVar a, _ when List.mem a params -> (
        match List.assoc_opt a subst with
        | Some bound -> if ty_equal bound arg then Some subst else None
        | None -> Some ((a, arg) :: subst))
    | TBase b, TBase b' -> if b = b' then Some subst else None
    | TVar a, TVar a' -> if String.equal a a' then Some subst else None
    | TList p, TList a -> go subst p a
    | TArrow (ps, pr), TArrow (as_, ar) when List.length ps = List.length as_
      ->
        go_list subst (ps @ [ pr ]) (as_ @ [ ar ])
    | TTuple ps, TTuple as_ when List.length ps = List.length as_ ->
        go_list subst ps as_
    | TForall _, TForall _ -> if ty_equal pat arg then Some subst else None
    | _ -> None
  and go_list subst ps as_ =
    List.fold_left2
      (fun acc p a -> match acc with None -> None | Some s -> go s p a)
      (Some subst) ps as_
  in
  if List.length pats <> List.length args then None else go_list [] pats args

let find_model_exn ?loc sc c args =
  match find_model ?loc sc c args with
  | Some found -> found
  | None ->
      Diag.eval_error ?loc "no model of %s in scope at runtime"
        (Pretty.constr_to_string (CModel (c, args)))

(* The scope with [resolved] in front; with nothing resolved it is the
   same scope, memo included. *)
let extend_scope resolved sc =
  match resolved with [] -> sc | _ -> scope_of (resolved @ sc.models)

(* ---------------------------------------------------------------- *)
(* Evaluation                                                        *)

type run = { st : state }

let bind renv x v = { renv with venv = Smap.add x (ref (Some v)) renv.venv }

let decl_of ?loc renv c =
  match Smap.find_opt c renv.concepts with
  | Some d -> d
  | None -> Diag.eval_error ?loc "unknown concept '%s' at runtime" c

let lookup ?loc renv x =
  match Smap.find_opt x renv.venv with
  | Some { contents = Some v } -> v
  | Some { contents = None } ->
      Diag.eval_error ?loc
        "recursive binding '%s' forced before initialization" x
  | None -> Diag.eval_error ?loc "unbound variable '%s' at runtime" x

(* Primitive application reuses the System F delta rules by converting
   through flat values — but closures can appear inside lists/tuples, so
   instead we duplicate the small delta table on FG values. *)
let delta ?loc name (args : value list) : value =
  let int2 f =
    match args with
    | [ VInt a; VInt b ] -> f a b
    | _ -> Diag.eval_error ?loc "primitive '%s' applied to bad arguments" name
  in
  match (name, args) with
  | "iadd", _ -> int2 (fun a b -> VInt (a + b))
  | "isub", _ -> int2 (fun a b -> VInt (a - b))
  | "imult", _ -> int2 (fun a b -> VInt (a * b))
  | "idiv", [ VInt _; VInt 0 ] -> Diag.eval_error ?loc "division by zero"
  | "imod", [ VInt _; VInt 0 ] -> Diag.eval_error ?loc "modulo by zero"
  | "idiv", _ -> int2 (fun a b -> VInt (a / b))
  | "imod", _ -> int2 (fun a b -> VInt (a mod b))
  | "ineg", [ VInt a ] -> VInt (-a)
  | "imin", _ -> int2 (fun a b -> VInt (min a b))
  | "imax", _ -> int2 (fun a b -> VInt (max a b))
  | "ilt", _ -> int2 (fun a b -> VBool (a < b))
  | "ile", _ -> int2 (fun a b -> VBool (a <= b))
  | "igt", _ -> int2 (fun a b -> VBool (a > b))
  | "ige", _ -> int2 (fun a b -> VBool (a >= b))
  | "ieq", _ -> int2 (fun a b -> VBool (a = b))
  | "ineq", _ -> int2 (fun a b -> VBool (a <> b))
  | "band", [ VBool a; VBool b ] -> VBool (a && b)
  | "bor", [ VBool a; VBool b ] -> VBool (a || b)
  | "bnot", [ VBool a ] -> VBool (not a)
  | "beq", [ VBool a; VBool b ] -> VBool (a = b)
  | "cons", [ v; VList vs ] -> VList (v :: vs)
  | "car", [ VList (v :: _) ] -> v
  | "car", [ VList [] ] -> Diag.eval_error ?loc "car of empty list"
  | "cdr", [ VList (_ :: vs) ] -> VList vs
  | "cdr", [ VList [] ] -> Diag.eval_error ?loc "cdr of empty list"
  | "null", [ VList vs ] -> VBool (vs = [])
  | "length", [ VList vs ] -> VInt (List.length vs)
  | "append", [ VList xs; VList ys ] -> VList (xs @ ys)
  | _ ->
      Diag.eval_error ?loc "primitive '%s' applied to invalid arguments (%s)"
        name
        (String.concat ", " (List.map value_kind args))

let prim_value ?loc name =
  let info = Fg_systemf.Prims.lookup_exn ?loc name in
  if name = "nil" then VList [] else VPrim (name, info.arity, [])

let rec apply_value ?loc run fn args =
  match (fn, args) with
  | _, [] -> fn
  | VClos (cenv, params, body), _ ->
      let n = List.length params in
      if List.length args < n then
        Diag.eval_error ?loc
          "function expecting %d argument(s) applied to only %d" n
          (List.length args)
      else begin
        spend ?loc run.st;
        let now = List.filteri (fun i _ -> i < n) args in
        let rest = List.filteri (fun i _ -> i >= n) args in
        let env' =
          List.fold_left2 (fun acc (x, _) v -> bind acc x v) cenv params now
        in
        apply_value ?loc run (eval run env' body) rest
      end
  | VPrim (name, remaining, collected), _ ->
      let n = List.length args in
      if n < remaining then
        VPrim (name, remaining - n, List.rev args @ collected)
      else if n = remaining then begin
        spend ?loc run.st;
        delta ?loc name (List.rev collected @ args)
      end
      else
        Diag.eval_error ?loc "primitive '%s' applied to too many arguments"
          name
  | v, _ ->
      Diag.eval_error ?loc "application of non-function value (%s)"
        (value_kind v)

(* Fully instantiate a resolved model at a use site: a parameterized
   model becomes ground, with its context resolved against the use-site
   models and its member bodies evaluated under the captured environment
   extended with the resolved context models — the runtime mirror of the
   polymorphic-dictionary application the translation emits. *)
and instantiate ?loc run (site : scope)
    ((m, subst) : rmodel * (string * ty) list) : rmodel =
  match m.r_impl with
  | RReady _ -> m
  | RDeferred (cenv, bodies) ->
    spend ?loc run.st;
    let inst_ty t = normalize_ty ?loc site (subst_ty_list subst t) in
    let resolved =
      List.filter_map
        (function
          | CModel (c', args') ->
              let args'' = List.map inst_ty args' in
              Some
                (instantiate ?loc run site
                   (find_model_exn ?loc site c' args''))
          | CSame _ -> None)
        m.r_constrs
    in
    let body_env = { cenv with scope = extend_scope resolved cenv.scope } in
    let sigma = subst_of_list subst in
    let members =
      List.map (fun (x, e) -> (x, eval run body_env (subst_ty_exp sigma e))) bodies
    in
    {
      r_concept = m.r_concept;
      r_params = [];
      r_constrs = [];
      r_args = List.map inst_ty m.r_args;
      r_assoc = List.map (fun (s, t) -> (s, inst_ty t)) m.r_assoc;
      r_impl = RReady members;
    }

(* Member lookup on an instantiated (ground) model: own members first,
   then the refined concepts' models, mirroring the static search. *)
and find_member ?loc run renv (m : rmodel) x : value option =
  let members =
    match m.r_impl with
    | RReady ms -> ms
    | RDeferred _ -> Diag.ice "interp: member lookup on uninstantiated model"
  in
  match List.assoc_opt x members with
  | Some v -> Some v
  | None ->
      let decl = decl_of ?loc renv m.r_concept in
      let params = List.combine decl.c_params m.r_args in
      let subst = params @ m.r_assoc in
      let rec try_refines = function
        | [] -> None
        | (c', rargs) :: rest -> (
            let rargs' =
              List.map
                (fun t -> normalize_ty ?loc renv.scope (subst_ty_list subst t))
                rargs
            in
            match find_model ?loc renv.scope c' rargs' with
            | None -> try_refines rest
            | Some found -> (
                let m' = instantiate ?loc run renv.scope found in
                match find_member ?loc run renv m' x with
                | Some v -> Some v
                | None -> try_refines rest))
      in
      try_refines decl.c_refines

and eval (run : run) (renv : renv) (e : exp) : value =
  let loc = e.loc in
  match e.desc with
  | Var x -> lookup ~loc renv x
  | Lit (LInt n) -> VInt n
  | Lit (LBool b) -> VBool b
  | Lit LUnit -> VUnit
  | Prim p -> prim_value ~loc p
  | Abs (params, body) -> VClos (renv, params, body)
  | TyAbs (tvs, constrs, body) -> VTyClos (renv, tvs, constrs, body)
  | TyApp (f, tys) -> (
      match eval run renv f with
      | VTyClos (cenv, tvs, constrs, body) ->
          spend ~loc run.st;
          if List.length tvs <> List.length tys then
            Diag.eval_error ~loc "type application arity mismatch at runtime";
          let tys' = List.map (normalize_ty ~loc renv.scope) tys in
          let s = subst_of_list (List.combine tvs tys') in
          (* Resolve instantiated model requirements at the CALL SITE —
             including the models of every concept each requirement
             (transitively) refines, mirroring the checker's proxy
             entries, so that inherited members resolve in the body. *)
          let rec resolve_closure acc c args =
            if
              List.exists
                (fun m ->
                  String.equal m.r_concept c
                  && List.length m.r_args = List.length args
                  && List.for_all2 ty_equal m.r_args args)
                acc
            then acc
            else
              let m =
                instantiate ~loc run renv.scope
                  (find_model_exn ~loc renv.scope c args)
              in
              let acc = m :: acc in
              let decl = decl_of ~loc renv c in
              let subst0 = List.combine decl.c_params args @ m.r_assoc in
              List.fold_left
                (fun acc (c', rargs) ->
                  let rargs' =
                    List.map
                      (fun t ->
                        normalize_ty ~loc renv.scope
                          (subst_ty_list subst0 t))
                      rargs
                  in
                  resolve_closure acc c' rargs')
                acc
                (decl.c_refines @ decl.c_requires)
          in
          let resolved =
            List.fold_left
              (fun acc -> function
                | CModel (c, args) ->
                    let args' =
                      List.map
                        (fun a ->
                          normalize_ty ~loc renv.scope (subst_ty s a))
                        args
                    in
                    resolve_closure acc c args'
                | CSame _ -> acc)
              [] constrs
          in
          let body' = subst_ty_exp s body in
          eval run { cenv with scope = extend_scope resolved cenv.scope } body'
      | VPrim _ as p -> p
      | VList [] as v -> v
      | v ->
          Diag.eval_error ~loc
            "type application of non-polymorphic value (%s)" (value_kind v))
  | App (f, args) ->
      let vf = eval run renv f in
      let vargs = List.map (eval run renv) args in
      apply_value ~loc run vf vargs
  | Let (x, rhs, body) ->
      let v = eval run renv rhs in
      eval run (bind renv x v) body
  | Tuple es -> VTuple (List.map (eval run renv) es)
  | Nth (e0, k) -> (
      match eval run renv e0 with
      | VTuple vs when k >= 0 && k < List.length vs -> List.nth vs k
      | VTuple vs ->
          Diag.eval_error ~loc "projection %d out of bounds for %d-tuple" k
            (List.length vs)
      | v -> Diag.eval_error ~loc "nth of non-tuple value (%s)" (value_kind v))
  | Fix (x, _, body) ->
      spend ~loc run.st;
      let cell = ref None in
      let renv' = { renv with venv = Smap.add x cell renv.venv } in
      let v = eval run renv' body in
      cell := Some v;
      v
  | If (c, t, f) -> (
      match eval run renv c with
      | VBool true -> eval run renv t
      | VBool false -> eval run renv f
      | v ->
          Diag.eval_error ~loc "if condition evaluated to non-bool (%s)"
            (value_kind v))
  | Member (c, args, x) -> (
      let args' = List.map (normalize_ty ~loc renv.scope) args in
      let m =
        instantiate ~loc run renv.scope
          (find_model_exn ~loc renv.scope c args')
      in
      match find_member ~loc run renv m x with
      | Some v -> v
      | None ->
          Diag.eval_error ~loc "model of %s has no member '%s' at runtime" c x)
  | ConceptDecl (d, body) ->
      eval run { renv with concepts = Smap.add d.c_name d renv.concepts } body
  | ModelDecl (d, body) ->
      (* All models are deferred and knot-tied: the captured environment
         contains the model itself, so member bodies (including filled-in
         defaults and recursive parameterized instances) may refer to the
         model being declared.  Ground models' member bodies evaluate on
         first use. *)
      let ground = d.m_params = [] in
      let args' =
        if ground then List.map (normalize_ty ~loc renv.scope) d.m_args
        else d.m_args
      in
      let assoc' =
        if ground then
          List.map (fun (s, t) -> (s, normalize_ty ~loc renv.scope t)) d.m_assoc
        else d.m_assoc
      in
      let rec m =
        {
          r_concept = d.m_concept;
          r_params = d.m_params;
          r_constrs = d.m_constrs;
          r_args = args';
          r_assoc = assoc';
          r_impl =
            RDeferred
              ( {
                  venv = renv.venv;
                  scope = inner;
                  named = renv.named;
                  concepts = renv.concepts;
                },
                d.m_members );
        }
      and inner = { models = m :: renv.scope.models; lookups = None } in
      (match d.m_name with
      | Some name -> eval run { renv with named = Smap.add name m renv.named } body
      | None -> eval run { renv with scope = inner } body)
  | Using (m, body) -> (
      match Smap.find_opt m renv.named with
      | Some rm ->
          eval run { renv with scope = scope_of (rm :: renv.scope.models) } body
      | None ->
          Diag.eval_error ~loc "unknown named model '%s' at runtime" m)
  | TypeAlias (t, ty, body) ->
      let ty' = normalize_ty ~loc renv.scope ty in
      eval run renv (subst_ty_exp (Smap.singleton t ty') body)

(** Evaluate a closed, well-typed FG program. *)
let run_program ?(fuel = default_fuel) (e : exp) : value * int =
  let run = { st = { fuel } } in
  let renv =
    {
      venv = Smap.empty;
      scope = scope_of [];
      named = Smap.empty;
      concepts = Smap.empty;
    }
  in
  let v = eval run renv e in
  (v, fuel - run.st.fuel)

let run_value ?fuel e = fst (run_program ?fuel e)
