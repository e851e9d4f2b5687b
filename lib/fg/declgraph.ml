(** Dependency analysis over declaration spines (see the interface).

    The scheme is deliberately over-approximate: every identifier
    occurring anywhere in a declaration — referenced names and binder
    names alike — counts as a reference, and the reference/concept sets
    of a unit's dependencies are folded into its own.  Extra edges only
    cost cache reuse; a missed edge would let {!Unit} replay a stale
    unit, so every place the checker can observe the enclosing scope
    must be covered:

    - name lookups (term variables, concepts, named models, aliases)
      are syntactic occurrences, including the ones a model inherits
      from its concept's default member bodies (hence the transitive
      reference closure);
    - binder names are included because shadowing is itself observable
      (FG0205 rejects a binder that shadows an in-scope type variable,
      FG0701 warns on model shadowing);
    - model resolution consults every model of a concept in scope, so a
      unit depends on every earlier unit contributing a model of any
      concept in its transitive concept-interest closure;
    - the Global ablation's overlap check is order-dependent across all
      models, so under it every model-declaring unit depends on every
      earlier one. *)

open Fg_util
open Ast
module Sset = Names.Sset
module ISet = Set.Make (Int)

type info = {
  i_provides : Sset.t;
  i_refs : Sset.t;
  i_concepts : Sset.t;
  i_model_of : Sset.t;
  i_named : (string * string) list;
  i_using : string option;
  i_declares_model : bool;
}

(* ---------------------------------------------------------------- *)
(* Name collection                                                    *)

type acc = { refs : Sset.t; cons : Sset.t }

let empty_acc = { refs = Sset.empty; cons = Sset.empty }
let add_ref a x = { a with refs = Sset.add x a.refs }

let add_concept_name a c =
  { refs = Sset.add c a.refs; cons = Sset.add c a.cons }

(* One pass over a type collecting every type-variable occurrence and
   every forall binder, free or bound (shadowing an in-scope alias is an
   FG0205 error, so a binder's name is an observation of scope), and
   every concept name, which is a reference as well as a concept. *)
let rec add_ty a = function
  | TBase _ -> a
  | TVar x -> add_ref a x
  | TArrow (args, ret) -> List.fold_left add_ty (add_ty a ret) args
  | TTuple ts -> List.fold_left add_ty a ts
  | TList t -> add_ty a t
  | TAssoc (c, args, _) -> List.fold_left add_ty (add_concept_name a c) args
  | TForall (tvs, constrs, body) ->
      List.fold_left add_constr
        (add_ty (List.fold_left add_ref a tvs) body)
        constrs

and add_constr a = function
  | CModel (c, args) -> List.fold_left add_ty (add_concept_name a c) args
  | CSame (x, y) -> add_ty (add_ty a x) y

let rec add_exp a (e : exp) =
  match e.desc with
  | Var x -> add_ref a x
  | Lit _ | Prim _ -> a
  | App (f, args) -> List.fold_left add_exp (add_exp a f) args
  | Abs (params, body) ->
      add_exp (List.fold_left (fun a (_, t) -> add_ty a t) a params) body
  | TyAbs (tvs, constrs, body) ->
      let a = { a with refs = Sset.union (Sset.of_list tvs) a.refs } in
      add_exp (List.fold_left add_constr a constrs) body
  | TyApp (f, tys) -> List.fold_left add_ty (add_exp a f) tys
  | Let (x, rhs, body) -> add_exp (add_exp (add_ref a x) rhs) body
  | Tuple es -> List.fold_left add_exp a es
  | Nth (e0, _) -> add_exp a e0
  | Fix (x, t, body) -> add_exp (add_ty (add_ref a x) t) body
  | If (c, t, f) -> add_exp (add_exp (add_exp a c) t) f
  | Member (c, args, _) -> List.fold_left add_ty (add_concept_name a c) args
  | ConceptDecl (d, body) -> add_exp (add_concept a d) body
  | ModelDecl (d, body) -> add_exp (add_model a d) body
  | Using (m, body) -> add_exp (add_ref a m) body
  | TypeAlias (t, ty, body) -> add_exp (add_ty (add_ref a t) ty) body

and add_concept a (d : concept_decl) =
  let a =
    {
      a with
      refs =
        Sset.union
          (Sset.of_list (d.c_params @ d.c_assoc))
          (Sset.add d.c_name a.refs);
    }
  in
  let add_capp a (c, tys) = List.fold_left add_ty (add_concept_name a c) tys in
  let a = List.fold_left add_capp a d.c_refines in
  let a = List.fold_left add_capp a d.c_requires in
  let a = List.fold_left (fun a (_, t) -> add_ty a t) a d.c_members in
  let a = List.fold_left (fun a (_, e) -> add_exp a e) a d.c_defaults in
  List.fold_left (fun a (x, y) -> add_ty (add_ty a x) y) a d.c_same

and add_model a (d : model_decl) =
  let a =
    {
      refs = Sset.union (Sset.of_list d.m_params) (Sset.add d.m_concept a.refs);
      cons = Sset.add d.m_concept a.cons;
    }
  in
  let a = List.fold_left add_constr a d.m_constrs in
  let a = List.fold_left add_ty a d.m_args in
  let a = List.fold_left (fun a (_, t) -> add_ty a t) a d.m_assoc in
  List.fold_left (fun a (_, e) -> add_exp a e) a d.m_members

(* ---------------------------------------------------------------- *)
(* Per-declaration facts                                              *)

let info_of_decl (e : exp) : info =
  let base =
    {
      i_provides = Sset.empty;
      i_refs = Sset.empty;
      i_concepts = Sset.empty;
      i_model_of = Sset.empty;
      i_named = [];
      i_using = None;
      i_declares_model = false;
    }
  in
  let finish provides a extra =
    {
      extra with
      i_provides = provides;
      i_refs = a.refs;
      i_concepts = a.cons;
    }
  in
  match e.desc with
  | Let (x, rhs, _) ->
      finish (Sset.singleton x) (add_exp (add_ref empty_acc x) rhs) base
  | ConceptDecl (d, _) ->
      finish (Sset.singleton d.c_name) (add_concept empty_acc d) base
  | ModelDecl (d, _) ->
      let a = add_model empty_acc d in
      let provides, named, model_of =
        match d.m_name with
        | Some m -> (Sset.singleton m, [ (m, d.m_concept) ], Sset.empty)
        | None -> (Sset.empty, [], Sset.singleton d.m_concept)
      in
      finish provides
        (match d.m_name with Some m -> add_ref a m | None -> a)
        { base with i_named = named; i_model_of = model_of;
          i_declares_model = true }
  | Using (m, _) ->
      finish Sset.empty (add_ref empty_acc m) { base with i_using = Some m }
  | TypeAlias (t, ty, _) ->
      finish (Sset.singleton t) (add_ty (add_ref empty_acc t) ty) base
  | _ -> base

let is_decl (e : exp) =
  match e.desc with
  | Let _ | ConceptDecl _ | ModelDecl _ | Using _ | TypeAlias _ -> true
  | _ -> false

(* ---------------------------------------------------------------- *)
(* The graph                                                          *)

let build ~global (infos : info array) : int list array =
  let n = Array.length infos in
  let deps = Array.make n [] in
  let refstar = Array.make n Sset.empty in
  let closed = Array.make n Sset.empty in
  let eff_model_of = Array.make n Sset.empty in
  let providers : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let named_concept : (string, string) Hashtbl.t = Hashtbl.create 16 in
  (* Earlier units that contribute a model to scope, newest first. *)
  let model_units = ref [] in
  for k = 0 to n - 1 do
    let info = infos.(k) in
    let mo =
      match info.i_using with
      | Some m -> (
          match Hashtbl.find_opt named_concept m with
          | Some c -> Sset.add c info.i_model_of
          | None -> info.i_model_of)
      | None -> info.i_model_of
    in
    eff_model_of.(k) <- mo;
    let d = ref ISet.empty in
    let r = ref info.i_refs in
    let c = ref info.i_concepts in
    if global && info.i_declares_model then
      List.iter
        (fun j -> if infos.(j).i_declares_model then d := ISet.add j !d)
        !model_units;
    let changed = ref true in
    while !changed do
      changed := false;
      (* latest provider of every accumulated reference *)
      Sset.iter
        (fun nm ->
          match Hashtbl.find_opt providers nm with
          | Some j when not (ISet.mem j !d) ->
              d := ISet.add j !d;
              changed := true
          | _ -> ())
        !r;
      (* fold dependency closures into our own *)
      ISet.iter
        (fun j ->
          if not (Sset.subset refstar.(j) !r) then begin
            r := Sset.union refstar.(j) !r;
            changed := true
          end;
          if not (Sset.subset closed.(j) !c) then begin
            c := Sset.union closed.(j) !c;
            changed := true
          end)
        !d;
      (* every earlier model of an interesting concept is consultable *)
      List.iter
        (fun j ->
          if
            (not (ISet.mem j !d))
            && not (Sset.is_empty (Sset.inter eff_model_of.(j) !c))
          then begin
            d := ISet.add j !d;
            changed := true
          end)
        !model_units
    done;
    refstar.(k) <- !r;
    closed.(k) <- !c;
    deps.(k) <- ISet.elements !d;
    Sset.iter (fun nm -> Hashtbl.replace providers nm k) info.i_provides;
    List.iter (fun (m, c) -> Hashtbl.replace named_concept m c) info.i_named;
    if info.i_declares_model || not (Sset.is_empty mo) then
      model_units := k :: !model_units
  done;
  deps
