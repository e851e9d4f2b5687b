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
      earlier one.

    A unit's fixpoint reads nothing of the units before it but what
    {!t} keeps: their closures, the latest provider of each name, the
    named-model map and the model-contributing units.  So a prefix is
    analysed once and its state extended by every spine that continues
    it, with the same edges as analysing the whole spine at once. *)

open Fg_util
open Ast
module Sset = Names.Sset
module Smap = Names.Smap
module IMap = Map.Make (Int)

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

(* What later units can observe of an analysed unit: its spine index,
   its transitive reference and concept closures, its effective
   model-of set ([using] resolved) and whether it declares a model. *)
type facts = {
  f_index : int;
  f_refs : Sset.t;
  f_concepts : Sset.t;
  f_model_of : Sset.t;
  f_declares_model : bool;
}

type t = {
  global : bool;
  next : int;  (** spine index of the next unit *)
  providers : facts Smap.t;  (** latest provider of each name *)
  named_concept : string Smap.t;  (** named model -> its concept *)
  model_units : facts list;
      (** units that contribute a model to scope, newest first *)
}

let empty ~global =
  {
    global;
    next = 0;
    providers = Smap.empty;
    named_concept = Smap.empty;
    model_units = [];
  }

let global g = g.global

(* The fixpoint for one unit, against the state of everything before
   it: its dependencies and the facts later units will see. *)
let analyse g (info : info) : facts * int list =
  let model_of =
    match info.i_using with
    | Some m -> (
        match Smap.find_opt m g.named_concept with
        | Some c -> Sset.add c info.i_model_of
        | None -> info.i_model_of)
    | None -> info.i_model_of
  in
  let d = ref IMap.empty in
  let r = ref info.i_refs in
  let c = ref info.i_concepts in
  (* names of [r] whose provider has not been looked up yet *)
  let pending = ref info.i_refs in
  (* a new dependency's closures fold into ours once, when it joins *)
  let add (u : facts) =
    d := IMap.add u.f_index u !d;
    if not (Sset.subset u.f_refs !r) then begin
      pending := Sset.union (Sset.diff u.f_refs !r) !pending;
      r := Sset.union u.f_refs !r
    end;
    c := Sset.union u.f_concepts !c
  in
  if g.global && info.i_declares_model then
    List.iter (fun u -> if u.f_declares_model then add u) g.model_units;
  let changed = ref true in
  while !changed do
    (* latest provider of every accumulated reference *)
    while not (Sset.is_empty !pending) do
      let names = !pending in
      pending := Sset.empty;
      Sset.iter
        (fun nm ->
          match Smap.find_opt nm g.providers with
          | Some u when not (IMap.mem u.f_index !d) -> add u
          | _ -> ())
        names
    done;
    (* every earlier model of an interesting concept is consultable *)
    changed := false;
    List.iter
      (fun u ->
        if
          (not (IMap.mem u.f_index !d))
          && not (Sset.disjoint u.f_model_of !c)
        then begin
          add u;
          changed := true
        end)
      g.model_units
  done;
  ( {
      f_index = g.next;
      f_refs = !r;
      f_concepts = !c;
      f_model_of = model_of;
      f_declares_model = info.i_declares_model;
    },
    List.map fst (IMap.bindings !d) )

(* The state after one more unit. *)
let push g (info : info) (u : facts) =
  {
    g with
    next = g.next + 1;
    providers =
      Sset.fold (fun nm p -> Smap.add nm u p) info.i_provides g.providers;
    named_concept =
      List.fold_left
        (fun m (name, c) -> Smap.add name c m)
        g.named_concept info.i_named;
    model_units =
      (if info.i_declares_model || not (Sset.is_empty u.f_model_of) then
         u :: g.model_units
       else g.model_units);
  }

let extend g (infos : info array) =
  let deps = Array.make (Array.length infos) [] in
  let g = ref g in
  Array.iteri
    (fun i info ->
      let u, d = analyse !g info in
      deps.(i) <- d;
      g := push !g info u)
    infos;
  (!g, deps)
