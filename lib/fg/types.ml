(** Type-level machinery of System FG: well-formedness, where-clause
    processing, member/dictionary layout, and translation of FG types to
    System F types.

    This module implements the paper's auxiliary functions:

    - {!assoc_scope} is [ba(c, τ̄)]: the associated types of a concept
      and of everything it (transitively) refines, mapped to their
      concept-qualified projections [C<τ̄>.s].
    - {!member_lookup} is [b(c, τ̄, n̄, Γ)]: the members reachable from a
      concept through refinement, each with its type (under the
      parameter and associated-type substitution) and the projection
      path to it inside the dictionary.
    - {!process_where} is [bw]/[bm]: processing a where clause in order,
      introducing proxy model entries for each requirement and for
      everything it refines (with diamond deduplication), generating a
      fresh type parameter per associated type together with the
      equation [s' = C<τ̄>.s], recording the concept's own same-type
      requirements, and computing each requirement's dictionary type.
    - {!translate_ty} is [Γ ⊢ τ ⇒ τ'] (Figures 8 and 12): every type is
      first replaced by its equivalence-class representative, and
      [forall] types gain one extra type parameter per associated type
      plus one dictionary parameter per requirement.

    The where-clause {!plan} is deliberately a {e syntactic} function of
    the binder list and constraint list (plus the concept table): type
    abstraction and type application must agree on the number and order
    of the extra type and dictionary parameters, and the application
    site's richer equality context must not change the layout.  Diamond
    deduplication therefore compares requirement arguments syntactically
    (up to alpha), not up to the equality relation. *)

open Ast
open Fg_util
module F = Fg_systemf.Ast
module Smap = Names.Smap

type plan = Env.plan = {
  p_slots : (string * (string * ty list * string)) list;
  p_dicts : (string * (string * ty list)) list;
}

let no_requirements plan = plan.p_dicts = []

let arity_check ?loc what name ~expected ~got =
  if expected <> got then
    Diag.wf_error ~code:"FG0203" ?loc "%s %s expects %d type argument(s) but got %d" what
      name expected got

(* ------------------------------------------------------------------ *)
(* The refinement lattice, one instantiation at a time                 *)

(* Every query below walks the lattice below [c<args>], and a diamond
   has exponentially many paths through it, so each instantiation is
   computed once per concept table and memoized in the environment
   (Env.memo: a pure function of the key, dropped with the run that
   recorded it). *)

(** [instance env (c, args)]: the concept's declaration and its
    instantiation at [args].  [in_scope] is [ba(c, τ̄)]: every
    associated-type name visible in [c] — its own and those of the
    concepts it transitively refines — mapped to its qualified
    projection.  On a name collision the first binding wins: the
    concept's own associated types shadow refined ones, and earlier
    refinements shadow later ones. *)
let rec instance ?loc env (c, args) : Env.instance =
  let key = (env.Env.concepts_gen, c, args) in
  match Env.find_memo env.Env.memo.instances key with
  | Some i -> i
  | None ->
      let decl = Env.lookup_concept_exn ?loc env c in
      arity_check ?loc "concept" c
        ~expected:(List.length decl.c_params)
        ~got:(List.length args);
      let own = List.map (fun s -> (s, TAssoc (c, args, s))) decl.c_assoc in
      let params = List.combine decl.c_params args in
      let scope =
        List.fold_left
          (fun acc (c', rargs) ->
            let rargs' = List.map (subst_ty_list (params @ acc)) rargs in
            let inherited = (instance ?loc env (c', rargs')).in_scope in
            acc
            @ List.filter (fun (s, _) -> not (List.mem_assoc s acc)) inherited)
          own decl.c_refines
      in
      let subst = params @ scope in
      let inst =
        List.map (fun (c', rargs) -> (c', List.map (subst_ty_list subst) rargs))
      in
      let i =
        {
          Env.in_decl = decl;
          in_scope = scope;
          in_subst = subst;
          in_refines = inst decl.c_refines;
          in_requires = inst decl.c_requires;
        }
      in
      Env.add_memo env.Env.memo.instances key i;
      i

let assoc_scope ?loc env r = (instance ?loc env r).in_scope

(** Substitution applied to a concept's member types and same-type
    requirements when the concept is instantiated at [args]: parameters
    to arguments, associated-type names to qualified projections. *)
let instantiation_subst ?loc env r = (instance ?loc env r).in_subst

(** Direct refinements of [c<args>], instantiated. *)
let refinements ?loc env r = (instance ?loc env r).in_refines

(** Nested requirements [require C'<σ̄>;] of [c<args>], instantiated
    (Section 6 extension): like refinements they contribute proxies and
    nested dictionaries, but no member names. *)
let requires ?loc env r = (instance ?loc env r).in_requires

(** The concept's same-type requirements, instantiated. *)
let same_requirements ?loc env r : (ty * ty) list =
  let i = instance ?loc env r in
  List.map
    (fun (a, b) -> (subst_ty_list i.in_subst a, subst_ty_list i.in_subst b))
    i.in_decl.c_same

(* ------------------------------------------------------------------ *)
(* b: member lookup with dictionary paths                              *)

(** [member_lookup env (c, args) x] finds member [x] in concept [c] or
    in a concept it refines (depth-first, the concept's own members
    first), returning its instantiated type and the projection path into
    the dictionary for [c<args>].  The layout matches Figure 7: a
    dictionary is a tuple whose first [|refines|] components are the
    refined concepts' dictionaries and whose remaining components are
    the concept's own members in declaration order.  Memoized per
    instantiation and name, so a miss costs one visit per distinct
    instantiation below [c<args>], not one per path. *)
let rec member_lookup ?loc env (c, args) x : (ty * int list) option =
  let key = ((env.Env.concepts_gen, c, args), x) in
  match Env.find_memo env.Env.memo.members key with
  | Some r -> r
  | None ->
      let i = instance ?loc env (c, args) in
      let decl = i.in_decl in
      let n_refines = List.length decl.c_refines + List.length decl.c_requires in
      let r =
        match
          List.find_index (fun (y, _) -> String.equal x y) decl.c_members
        with
        | Some k ->
            let ty = subst_ty_list i.in_subst (snd (List.nth decl.c_members k)) in
            Some (ty, [ n_refines + k ])
        | None ->
            List.find_map
              (fun (j, r) ->
                Option.map
                  (fun (ty, path) -> (ty, j :: path))
                  (member_lookup ?loc env r x))
              (List.mapi (fun j r -> (j, r)) i.in_refines)
      in
      Env.add_memo env.Env.memo.members key r;
      r

(** All members reachable from [c<args>], with types and paths; own
    members shadow refined ones of the same name (tests, docs, REPL). *)
let rec all_members ?loc env (c, args) : (string * ty * int list) list =
  let i = instance ?loc env (c, args) in
  let decl = i.in_decl in
  let n_refines = List.length decl.c_refines + List.length decl.c_requires in
  let own =
    List.mapi
      (fun k (x, ty) -> (x, subst_ty_list i.in_subst ty, [ n_refines + k ]))
      decl.c_members
  in
  let inherited =
    List.concat
      (List.mapi
         (fun j r ->
           List.map
             (fun (x, ty, path) -> (x, ty, j :: path))
             (all_members ?loc env r))
         i.in_refines)
  in
  own
  @ List.filter
      (fun (x, _, _) -> not (List.exists (fun (y, _, _) -> x = y) own))
      inherited

(* ------------------------------------------------------------------ *)
(* Well-formedness and translation of types (mutually recursive with
   where-clause processing)                                            *)

(* Translating a type draws fresh names exactly when it meets a
   [forall], and later names depend on how many were drawn.  A
   dictionary type the translation does not keep may be skipped only
   when building it could draw none: no [forall] among its arguments,
   and none in scope that the lattice's member types or a
   representative could lead to. *)
let may_draw env (_, args) = env.Env.foralls || List.exists has_forall args

let rec wf_ty ?loc env (t : ty) : unit =
  match t with
  | TBase _ -> ()
  | TVar a ->
      if not (Env.tyvar_in_scope env a) then
        Diag.wf_error ~code:"FG0207" ?loc "unbound type variable '%s'" a
  | TArrow (args, ret) ->
      List.iter (wf_ty ?loc env) args;
      wf_ty ?loc env ret
  | TTuple ts -> List.iter (wf_ty ?loc env) ts
  | TList t -> wf_ty ?loc env t
  | TAssoc (c, args, s) -> (
      let decl = Env.lookup_concept_exn ?loc env c in
      arity_check ?loc "concept" c
        ~expected:(List.length decl.c_params)
        ~got:(List.length args);
      List.iter (wf_ty ?loc env) args;
      if not (List.mem s decl.c_assoc) then
        Diag.wf_error ~code:"FG0206" ?loc "concept %s has no associated type '%s'" c s;
      (* TYASC: the projection is only meaningful under a model. *)
      match Env.lookup_model env c args with
      | Some _ -> ()
      | None ->
          Diag.wf_error ?loc
            "associated type %s requires a model of %s in scope"
            (Pretty.ty_to_string t)
            (Pretty.constr_to_string (CModel (c, args))))
  | TForall (tvs, constrs, body) ->
      (match Names.find_duplicate tvs with
      | Some d ->
          Diag.wf_error ~code:"FG0204" ?loc "duplicate type parameter '%s' in forall" d
      | None -> ());
      List.iter
        (fun a ->
          if Env.tyvar_in_scope env a then
            Diag.wf_error ~code:"FG0205" ?loc
              "type parameter '%s' shadows a type variable in scope" a)
        tvs;
      let env', _plan = process_where ?loc env tvs constrs in
      wf_ty ?loc env' body

(* bw / bm: process a where clause in order.  Checks well-formedness of
   each constraint against the environment extended so far (so later
   requirements may mention earlier requirements' associated types),
   introduces proxy models and their equations, and computes the plan.
   The requirements' dictionary types are left to the callers that keep
   them ({!process_where_dicts}); a caller that would throw them away
   gets them built only when skipping them would shift fresh names. *)
and process_where ?loc env binders constrs : Env.t * plan =
  let env, plan = where_clause ?loc env binders constrs in
  if List.exists (fun (_, r) -> may_draw env r) plan.p_dicts then
    ignore (dict_types ?loc ~keep:false env plan);
  (env, plan)

and process_where_dicts ?loc env binders constrs : Env.t * plan * F.ty list =
  let env, plan = where_clause ?loc env binders constrs in
  (env, plan, dict_types ?loc ~keep:true env plan)

and where_clause ?loc env (binders : string list) (constrs : constr list) :
    Env.t * plan =
  (match Names.find_duplicate binders with
  | Some d -> Diag.wf_error ~code:"FG0204" ?loc "duplicate type parameter '%s'" d
  | None -> ());
  List.iter
    (fun a ->
      if Env.tyvar_in_scope env a then
        Diag.wf_error ~code:"FG0205" ?loc
          "type parameter '%s' shadows a type variable in scope" a)
    binders;
  let env = Env.bind_tyvars env binders in
  (* requirements already visited, by concept name *)
  let seen : (string, ty list) Hashtbl.t = Hashtbl.create 8 in
  let slots = ref [] in
  let dicts = ref [] in
  (* Visit one requirement and everything it refines, pre-order. *)
  let rec visit env dict_var path (c, args) : Env.t =
    if
      List.exists
        (fun args' ->
          List.length args = List.length args'
          && List.for_all2 ty_equal args args')
        (Hashtbl.find_all seen c)
    then env (* diamond: already processed with the same arguments *)
    else begin
      Hashtbl.add seen c args;
      let decl = Env.lookup_concept_exn ?loc env c in
      (* Fresh type parameter per associated type, with its defining
         equation s' = C<τ̄>.s. *)
      let env, assoc_map =
        List.fold_left_map
          (fun env s ->
            let v = Env.fresh env s in
            slots := (v, (c, args, s)) :: !slots;
            let env = Env.assume env (TVar v) (TAssoc (c, args, s)) in
            (env, (s, TVar v)))
          env decl.c_assoc
      in
      let env =
        Env.bind_model env
          {
            me_concept = c;
            me_params = [];
            me_constrs = [];
            me_args = args;
            me_dict = dict_var;
            me_path = path;
            me_assoc =
              List.fold_left
                (fun m (s, v) -> Smap.add s v m)
                Smap.empty assoc_map;
            me_proxy = true;
          }
      in
      (* Assume the concept's same-type requirements. *)
      let env =
        Env.assume_all env (same_requirements ?loc env (c, args))
      in
      (* Recurse into refinements, then nested requirements; their
         dictionaries occupy the leading tuple slots in that order. *)
      let refs = refinements ?loc env (c, args) in
      let reqs = requires ?loc env (c, args) in
      let n_refs = List.length refs in
      let env =
        List.fold_left
          (fun env (j, r) -> visit env dict_var (path @ [ j ]) r)
          env
          (List.mapi (fun j r -> (j, r)) refs)
      in
      List.fold_left
        (fun env (j, r) -> visit env dict_var (path @ [ n_refs + j ]) r)
        env
        (List.mapi (fun j r -> (j, r)) reqs)
    end
  in
  let env =
    List.fold_left
      (fun env constr ->
        match constr with
        | CModel (c, args) ->
            let decl = Env.lookup_concept_exn ?loc env c in
            arity_check ?loc "concept" c
              ~expected:(List.length decl.c_params)
              ~got:(List.length args);
            List.iter (wf_ty ?loc env) args;
            let d = Env.fresh env c in
            let env = visit env d [] (c, args) in
            dicts := (d, (c, args)) :: !dicts;
            env
        | CSame (a, b) ->
            wf_ty ?loc env a;
            wf_ty ?loc env b;
            Env.assume env a b)
      env constrs
  in
  (env, { p_slots = List.rev !slots; p_dicts = List.rev !dicts })

(* The requirements' dictionary types, computed once the whole clause
   is in scope (so a requirement's type may mention any requirement's
   associated types via their representatives).  They form one DAG:
   a refined concept's dictionary type is built once per distinct
   instantiation and shared by every path that reaches it.  Building
   one that meets a [forall] draws fresh names, which the type shows;
   a kept type is then built again on each path, with its own names, as
   the translation always has.  A thrown-away one is not: the supply
   just advances by the names building it again would draw. *)
and dict_types ?loc ~keep env plan : F.ty list =
  let built = Hashtbl.create 8 in
  List.map (fun (_, r) -> shared_dict_type ?loc ~keep env built r) plan.p_dicts

and shared_dict_type ?loc ~keep env built (c, args) : F.ty =
  let gensym = env.Env.gensym in
  match Hashtbl.find_opt built (c, args) with
  | Some (ty, 0) -> ty
  | Some (ty, drawn) when not keep ->
      Gensym.restore gensym (Gensym.mark gensym + drawn);
      ty
  | _ ->
      let start = Gensym.mark gensym in
      let i = instance ?loc env (c, args) in
      let ty =
        F.TTuple
          (List.map
             (shared_dict_type ?loc ~keep env built)
             (i.in_refines @ i.in_requires)
          @ List.map
              (fun (_, ty) -> translate_ty ?loc env (subst_ty_list i.in_subst ty))
              i.in_decl.c_members)
      in
      Hashtbl.replace built (c, args) (ty, Gensym.mark gensym - start);
      ty

(* The dictionary type δ for a model of [c<args>] (Figure 7 layout):
   nested dictionaries for refined concepts first, then the translated
   member types. *)
and dict_type ?loc env r : F.ty =
  shared_dict_type ?loc ~keep:true env (Hashtbl.create 8) r

(* Γ ⊢ τ ⇒ τ': replace by the class representative, then translate
   structurally; foralls get assoc-type parameters and dictionary
   parameters per their where clause.  Each subterm is replaced by its
   own representative in turn, except below a plainly canonical one
   ({!Env.ty_repr_canonical}), whose subterms already are theirs: there
   asking again would change nothing, and would make translating
   [list^k int] cost k representative lookups of shrinking size. *)
and translate_ty ?loc env (t : ty) : F.ty =
  match Env.ty_repr_canonical ?loc env t with
  | r, true -> translate_plain r
  | r, false -> translate_repr ?loc env r

and translate_plain (t : ty) : F.ty =
  match t with
  | TBase b -> F.TBase b
  | TVar a -> F.TVar a
  | TArrow (args, ret) ->
      F.TArrow (List.map translate_plain args, translate_plain ret)
  | TTuple ts -> F.TTuple (List.map translate_plain ts)
  | TList t -> F.TList (translate_plain t)
  | TAssoc _ | TForall _ -> Diag.ice "translate_plain: not a plain type"

and translate_repr ?loc env (r : ty) : F.ty =
  match r with
  | TBase b -> F.TBase b
  | TVar a -> F.TVar a
  | TArrow (args, ret) ->
      F.TArrow (List.map (translate_ty ?loc env) args, translate_ty ?loc env ret)
  | TTuple ts -> F.TTuple (List.map (translate_ty ?loc env) ts)
  | TList t -> F.TList (translate_ty ?loc env t)
  | TAssoc (c, args, s) ->
      Diag.translate_error ?loc
        "associated type %s has no known binding (no model of %s in scope?)"
        (Pretty.ty_to_string (TAssoc (c, args, s)))
        (Pretty.constr_to_string (CModel (c, args)))
  | TForall (tvs, constrs, body) ->
      let env', plan, dict_tys = process_where_dicts ?loc env tvs constrs in
      let body' = translate_ty ?loc env' body in
      if no_requirements plan then F.TForall (tvs, body')
      else
        F.TForall
          (tvs @ List.map fst plan.p_slots, F.TArrow (dict_tys, body'))

(* ------------------------------------------------------------------ *)
(* Instantiating a plan at a type-application site                     *)

(** The extra System F type arguments for a type application: the
    representative of each associated-type slot's projection, after
    substituting actual type arguments for the binders. *)
let plan_slot_actuals ?loc env ~subst:(s : (string * ty) list) (plan : plan) :
    F.ty list =
  List.map
    (fun (_, (c, args, assoc)) ->
      let args' = List.map (subst_ty_list s) args in
      translate_ty ?loc env (TAssoc (c, args', assoc)))
    plan.p_slots

(* A parameterized model's where-clause plan at a use site, over fresh
   binders (renaming them mirrors the TAPP rule).  The plan is a
   function of the binders, the context and the concept table, so it is
   computed once per run (Env.memo) and reused with the matched types
   substituted for its binders; the fresh-name supply then skips the
   names computing it again would have drawn, as a thrown-away
   dictionary type's are skipped.  It is computed at every use, as
   before, where more than that key decides the work: a [forall] in
   scope or in the context (the names a thrown-away dictionary type
   draws then follow the use site's equations), a context that names
   type variables besides the binders (a fresh binder name could
   capture one), and a use site that has the next binder name in
   scope (which [process_where] reports). *)
let model_plan ?loc env (me : Env.model_entry) : string list * plan =
  let compute () =
    let fresh_params = List.map (fun a -> Env.fresh env a) me.Env.me_params in
    let rename =
      List.map2 (fun a b -> (a, TVar b)) me.Env.me_params fresh_params
    in
    let constrs_r = List.map (subst_constr_list rename) me.Env.me_constrs in
    (fresh_params, snd (process_where ?loc env fresh_params constrs_r))
  in
  if env.Env.foralls then compute ()
  else
    let gensym = env.Env.gensym in
    let key = (env.Env.concepts_gen, me.Env.me_params, me.Env.me_constrs) in
    match Env.find_memo env.Env.memo.plans key with
    | Some None -> compute ()
    | Some (Some mp) ->
        let start = Gensym.mark gensym in
        let rec binder_in_scope i = function
          | [] -> false
          | a :: rest ->
              Env.tyvar_in_scope env (Gensym.name_at a (start + i))
              || binder_in_scope (i + 1) rest
        in
        if binder_in_scope 0 me.Env.me_params then compute ()
        else begin
          Gensym.restore gensym (start + mp.Env.mp_drawn);
          (mp.Env.mp_params, mp.Env.mp_plan)
        end
    | None ->
        let params = Names.Sset.of_list me.Env.me_params in
        let reusable =
          List.for_all
            (fun c ->
              (match c with
              | CModel (_, args) -> not (List.exists has_forall args)
              | CSame (a, b) -> not (has_forall a || has_forall b))
              && Names.Sset.subset (ftv_constr c) params)
            me.Env.me_constrs
        in
        let start = Gensym.mark gensym in
        let fresh_params, plan = compute () in
        Env.add_memo env.Env.memo.plans key
          (if reusable then
             Some
               {
                 Env.mp_params = fresh_params;
                 mp_plan = plan;
                 mp_drawn = Gensym.mark gensym - start;
               }
           else None);
        (fresh_params, plan)

(** The System F dictionary expression for a resolved model.  A ground
    model's dictionary is its (possibly projected) dictionary variable;
    a parameterized model's dictionary function is instantiated at the
    matched types and applied to the (recursively built) dictionaries of
    its own requirements — exactly a type application of the polymorphic
    dictionary. *)
let rec model_dict_exp ?loc env (fm : Env.found_model) : F.exp =
  let me = fm.Env.fm_entry in
  let base = F.nth_path ?loc (F.var ?loc me.Env.me_dict) me.Env.me_path in
  if me.Env.me_params = [] then base
  else begin
    let actual p =
      match List.assoc_opt p fm.Env.fm_subst with
      | Some t -> t
      | None ->
          Diag.resolve_error ?loc
            "parameterized model of %s: parameter '%s' not determined by \
             the matched arguments"
            me.Env.me_concept p
    in
    let fresh_params, plan = model_plan ?loc env me in
    let subst =
      List.map2 (fun fp p -> (fp, actual p)) fresh_params me.Env.me_params
    in
    let ty_args =
      List.map (fun p -> translate_ty ?loc env (actual p)) me.Env.me_params
    in
    if no_requirements plan then F.tyapp ?loc base ty_args
    else
      let slot_actuals = plan_slot_actuals ?loc env ~subst plan in
      let dict_actuals = plan_dict_actuals ?loc env ~subst plan in
      F.app ?loc (F.tyapp ?loc base (ty_args @ slot_actuals)) dict_actuals
  end

(** The dictionary arguments for a type application: for each top-level
    requirement, the dictionary expression of the resolved model. *)
and plan_dict_actuals ?loc env ~subst:(s : (string * ty) list) (plan : plan) :
    F.exp list =
  List.map
    (fun (_, (c, args)) ->
      let args' = List.map (subst_ty_list s) args in
      match Env.lookup_model ?loc env c args' with
      | Some fm -> model_dict_exp ?loc env fm
      | None ->
          Diag.resolve_error ~code:"FG0402" ?loc "no model of %s in scope"
            (Pretty.constr_to_string (CModel (c, args'))))
    plan.p_dicts
