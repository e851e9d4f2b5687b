(** Typing environments for System FG.

    The paper's environment Γ has four parts (Section 4): term-variable
    type assignments, type variables in scope, concept information, and
    model information — where each model records the dictionary variable
    and the path to its dictionary within it.  With associated types
    (Section 5), Γ additionally carries type equalities and each model
    records its associated-type assignment.

    Environments are persistent; declaration forms extend them for the
    scope of their body only, which is precisely what gives FG its
    lexically scoped (and shadowable, and overlappable) models. *)

open Ast
open Fg_util
module Smap = Names.Smap
module Sset = Names.Sset

(* Model-resolution outcomes are prime fuzzing real estate: scoped
   shadowing, parameterized matching and failed lookups are where
   coherence bugs live, so each outcome is a coverage point. *)
let probe_resolve_ground = Coverage.probe "resolve.found.ground"
let probe_resolve_param = Coverage.probe "resolve.found.param"
let probe_resolve_none = Coverage.probe "resolve.none"

type model_entry = {
  me_concept : string;
  me_params : string list;
      (** binders of a parameterized model ([model <t> where ... =>
          C<pattern>]); empty for ground models and proxies *)
  me_constrs : constr list;  (** a parameterized model's own context *)
  me_args : ty list;
      (** the modeled types; patterns over [me_params] when
          parameterized *)
  me_dict : string;  (** dictionary variable in the System F output *)
  me_path : int list;  (** projection path to this model's dictionary *)
  me_assoc : ty Smap.t;
      (** this model's own associated types: name -> assigned type (a
          concrete type for declared models, possibly mentioning
          [me_params]; a fresh type variable for the proxy models
          introduced by where clauses) *)
  me_proxy : bool;  (** true for where-clause proxies *)
}

(** A successful model lookup: the entry plus, for parameterized
    models, the matching substitution for its parameters. *)
type found_model = { fm_entry : model_entry; fm_subst : (string * ty) list }

(** One concept instantiation [c<τ̄>] with what {!Types} derives from it
    by walking the refinement lattice; a pure function of the concept
    table and [(c, τ̄)]. *)
type instance = {
  in_decl : concept_decl;
  in_scope : (string * ty) list;
      (** [ba(c, τ̄)]: every visible associated-type name to its
          projection *)
  in_subst : (string * ty) list;
      (** parameters to arguments, then [in_scope] *)
  in_refines : (string * ty list) list;  (** instantiated refinements *)
  in_requires : (string * ty list) list;  (** instantiated requirements *)
}

type key = int * string * ty list

(** A where clause's plan: the extra type parameters (one per associated
    type, diamonds deduplicated) and dictionary parameters (one per
    top-level requirement) that abstraction and application must agree
    on.  {!Types} computes it. *)
type plan = {
  p_slots : (string * (string * ty list * string)) list;
      (** fresh type-parameter name -> the projection [C<τ̄>.s] it
          stands for, in binder order; τ̄ written in terms of the
          abstraction's own binders *)
  p_dicts : (string * (string * ty list)) list;
      (** dictionary variable -> top-level requirement, in where-clause
          order *)
}

(** A parameterized model's where-clause plan as its first use computed
    it: the fresh binders it was computed over, the plan in terms of
    them, and the fresh names computing it drew (binders included). *)
type model_plan = { mp_params : string list; mp_plan : plan; mp_drawn : int }

(* A memo whose entries live as long as their keys can recur.  Keys
   carry scope generations, and every program checked against a
   session mints its own, so what a run records can only hit within
   that run: while a run is open its entries go to its own table, which
   dies with it, and the session's table is only read. *)
type ('k, 'v) tiers = {
  session : ('k, 'v) Hashtbl.t;
  mutable run : ('k, 'v) Hashtbl.t option;
}

type memo = {
  resolved : (key, found_model option) tiers;
      (** model resolution, keyed on (scope generation, concept,
          argument types) *)
  instances : (key, instance) tiers;
      (** concept instantiations, keyed on (concept-table generation,
          concept, argument types) *)
  members : (key * string, (ty * int list) option) tiers;
      (** member lookups: an instantiation's key and the member name *)
  plans : (int * string list * constr list, model_plan option) tiers;
      (** parameterized models' where-clause plans, keyed on the
          concept-table generation and the model's binders and context;
          [None] for a context whose plan may depend on more *)
}

type t = {
  vars : ty Smap.t;
  tyvars : Sset.t;
  concepts : concept_decl Smap.t;
  concepts_gen : int;
      (** identifies [concepts]: bumped by {!bind_concept}, so the
          concept-query memo can key results by concept table *)
  models : model_entry list;  (** newest first; lookup order = shadowing *)
  named_models : model_entry Smap.t;
      (** named models (Section 6): declared but only active under
          [using] *)
  eq : Equality.t;
  foralls : bool;
      (** some concept, model assignment or equation in scope mentions
          a [forall] type, so translating a type may meet one (and draw
          fresh names) even where the type itself has none *)
  gensym : Gensym.t;  (** shared fresh-name supply for the translation *)
  resolution : Resolution.mode;
  escape_check : bool;
      (** enforce the CPT side condition [c ∉ CV(τ)] — on by default;
          tools may disable it to inspect generic values whose types
          mention locally declared concepts *)
  global_models : (string * ty list) list ref;
      (** all models ever declared, program-wide — used only by the
          Haskell-style {!Resolution.Global} ablation's overlap check *)
  scope_gen : int;
      (** identifies this environment's (models, eq) pair: bumped by
          every extension that can change what {!lookup_model} sees, so
          the resolution cache can key results by scope *)
  gen_supply : int ref;  (** shared generation supply, never rewound *)
  memo : memo;
      (** memoized resolution and concept queries, shared by every
          environment derived from the same {!create} — in particular
          by every program checked against one session's prelude
          scope *)
  diag : Diag.engine ref;
      (** warning sink, shared by every environment derived from the
          same {!create}; recovering drivers swap in their own engine
          for the duration of a run *)
  family : int;
      (** uniquely names the {!create} call this environment derives
          from.  Frames produced while checking under one family (a
          type alias's, in cached compilation units) may hold
          environments and their shared mutable state (the gensym, the
          memo), so they are only replayable under the same family —
          {!Fg_core.Unit} keys its cache on this. *)
}

let family_supply = Atomic.make 0

let tiers n = { session = Hashtbl.create n; run = None }

let create ?(resolution = Resolution.Lexical) ?(escape_check = true) () =
  {
    vars = Smap.empty;
    tyvars = Sset.empty;
    concepts = Smap.empty;
    concepts_gen = 0;
    models = [];
    named_models = Smap.empty;
    eq = Equality.empty ();
    foralls = false;
    gensym = Gensym.create ();
    resolution;
    escape_check;
    global_models = ref [];
    scope_gen = 0;
    gen_supply = ref 0;
    memo =
      {
        resolved = tiers 256;
        instances = tiers 64;
        members = tiers 64;
        plans = tiers 16;
      };
    diag = ref (Diag.engine ());
    family = Atomic.fetch_and_add family_supply 1;
  }

let with_fresh_family env =
  { env with family = Atomic.fetch_and_add family_supply 1 }

(* A fresh generation.  The supply is shared and monotone, so a
   generation uniquely names one (models, eq) pair or one concept table
   for the lifetime of the memo — results recorded under one scope can
   never answer a lookup made under another (e.g. two programs declaring
   different models of the same concept each get private generations). *)
let fresh_gen env = incr env.gen_supply; !(env.gen_supply)

let next_gen env = { env with scope_gen = fresh_gen env }

(* ------------------------------------------------------------------ *)
(* The memo's lifetime                                                 *)

let find_memo t k =
  match Hashtbl.find_opt t.session k with
  | Some _ as r -> r
  | None -> Option.bind t.run (fun r -> Hashtbl.find_opt r k)

let add_memo t k v =
  Hashtbl.replace (match t.run with Some r -> r | None -> t.session) k v

let with_run env f =
  let m = env.memo in
  match m.resolved.run with
  | Some _ -> f ()
  | None ->
      let open_run t = t.run <- Some (Hashtbl.create 64) in
      let close_run t = t.run <- None in
      open_run m.resolved;
      open_run m.instances;
      open_run m.members;
      open_run m.plans;
      Fun.protect f ~finally:(fun () ->
          close_run m.resolved;
          close_run m.instances;
          close_run m.members;
          close_run m.plans)

let memo_entries env =
  let m = env.memo in
  Hashtbl.length m.resolved.session
  + Hashtbl.length m.instances.session
  + Hashtbl.length m.members.session
  + Hashtbl.length m.plans.session

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)

let bind_var env x t = { env with vars = Smap.add x t env.vars }

let bind_tyvars env tvs =
  { env with tyvars = List.fold_left (fun s t -> Sset.add t s) env.tyvars tvs }

let decl_has_forall (d : concept_decl) =
  let args = List.concat_map snd in
  List.exists has_forall
    (List.map snd d.c_members
    @ args d.c_refines @ args d.c_requires
    @ List.concat_map (fun (a, b) -> [ a; b ]) d.c_same)

let bind_concept env (d : concept_decl) =
  {
    env with
    concepts = Smap.add d.c_name d env.concepts;
    concepts_gen = fresh_gen env;
    foralls = env.foralls || decl_has_forall d;
  }

let bind_model env me =
  next_gen
    {
      env with
      models = me :: env.models;
      foralls = env.foralls || Smap.exists (fun _ t -> has_forall t) me.me_assoc;
    }

let bind_named_model env name me =
  (* named models are inert until [using] activates them (which goes
     through {!bind_model}), so the scope generation is unchanged *)
  { env with named_models = Smap.add name me env.named_models }

let lookup_named_model env name = Smap.find_opt name env.named_models

let assume env a b =
  next_gen
    {
      env with
      eq = Equality.assume env.eq a b;
      foralls = env.foralls || has_forall a || has_forall b;
    }

let assume_all env pairs =
  next_gen
    {
      env with
      eq = Equality.assume_all env.eq pairs;
      foralls =
        env.foralls
        || List.exists (fun (a, b) -> has_forall a || has_forall b) pairs;
    }

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

let lookup_var env x = Smap.find_opt x env.vars

let tyvar_in_scope env a = Sset.mem a env.tyvars

let lookup_concept env c = Smap.find_opt c env.concepts

let concept_names env = List.map fst (Smap.bindings env.concepts)
let var_names env = List.map fst (Smap.bindings env.vars)

let lookup_concept_exn ?loc env c =
  match lookup_concept env c with
  | Some d -> d
  | None ->
      let notes =
        match Strutil.nearest ~candidates:(concept_names env) c with
        | Some near -> [ Diag.suggest near ]
        | None -> []
      in
      Diag.wf_error ~code:"FG0202" ~notes ?loc "unknown concept '%s'" c

(* Resolution depth fuse: parameterized models can require instances of
   themselves at larger types, and ill-behaved sets of models could
   diverge; bound the recursion and report rather than loop. *)
let max_resolution_depth = 64

(* [what] renders the subject for the message.  It is a thunk because
   this check runs on every resolution step and pretty-printing the
   subject costs far more than the search it guards; only a tripped
   fuse pays for it. *)
let check_depth ?loc depth what =
  if depth > max_resolution_depth then
    Diag.resolve_error ~code:"FG0405" ?loc
      "model resolution exceeded depth %d while resolving %s (diverging \
       parameterized models?)"
      max_resolution_depth (what ())

(** Normalize a type by resolving associated-type projections through
    the models in scope.  Ground models also contribute equations to the
    congruence closure, but parameterized models are schematic — one
    declaration covers infinitely many instances — so their projections
    are resolved here, by rewriting, before any equality query.  A type
    with nothing to rewrite comes back as itself, not as a copy. *)
let rec normalize ?loc ?(depth = 0) env (t : ty) : ty =
  normalize_at ?loc depth env t

(* [normalize] with the depth passed positionally: the walk over a type
   with nothing to rewrite allocates nothing. *)
and normalize_at ?loc depth env (t : ty) : ty =
  if depth > max_resolution_depth then
    check_depth ?loc depth (fun () -> Pretty.ty_to_string t);
  match t with
  | TBase _ | TVar _ -> t
  | TArrow (args, ret) ->
      let ret' = normalize_at ?loc depth env ret in
      let args' = map_shared (normalize_at ?loc depth env) args in
      if args' == args && ret' == ret then t else TArrow (args', ret')
  | TTuple ts ->
      let ts' = map_shared (normalize_at ?loc depth env) ts in
      if ts' == ts then t else TTuple ts'
  | TList u ->
      let u' = normalize_at ?loc depth env u in
      if u' == u then t else TList u'
  | TForall _ -> t (* alpha-opaque under equality; leave as written *)
  | TAssoc (c, args, s) -> (
      let args' = map_shared (normalize_at ?loc depth env) args in
      let t' = if args' == args then t else TAssoc (c, args', s) in
      match lookup_model ?loc ~depth:(depth + 1) env c args' with
      | Some { fm_entry; fm_subst } -> (
          match Smap.find_opt s fm_entry.me_assoc with
          | Some def ->
              let def' = subst_ty_list fm_subst def in
              if ty_equal def' t' then def'
              else normalize_at ?loc (depth + 1) env def'
          | None -> t')
      | None -> t')

(** Find the innermost model of [c<args>] in scope.  Ground models and
    proxies match when their arguments are equal (up to the equality
    relation); parameterized models match when their argument patterns
    match and their own requirements resolve recursively.
    Innermost-first search implements lexical shadowing (Section 3.2). *)
and lookup_model ?loc ?(depth = 0) env c args : found_model option =
  Telemetry.record_model_lookup ();
  let key = (env.scope_gen, c, args) in
  match find_memo env.memo.resolved key with
  | Some r ->
      Telemetry.record_resolve_hit ();
      r
  | None ->
      Telemetry.record_resolve_miss ();
      let r = lookup_model_uncached ?loc ~depth env c args in
      (* only reached when the search terminated (the depth fuse raises
         out of here), so the recorded result is depth-independent *)
      (* Coverage at the miss site only: cache hits replay a decision
         already counted, and the fuzzer measures per-program on fresh
         sessions anyway. *)
      (match r with
      | Some fm when fm.fm_entry.me_params = [] ->
          Coverage.hit probe_resolve_ground
      | Some _ -> Coverage.hit probe_resolve_param
      | None -> Coverage.hit probe_resolve_none);
      add_memo env.memo.resolved key r;
      r

and lookup_model_uncached ?loc ~depth env c args : found_model option =
  check_depth ?loc depth (fun () ->
      Pretty.constr_to_string (CModel (c, args)));
  let args = map_shared (normalize_at ?loc (depth + 1) env) args in
  List.find_map
    (fun me ->
      if not (String.equal me.me_concept c) then None
      else if me.me_params = [] then
        if
          List.length me.me_args = List.length args
          && List.for_all2
               (fun a b ->
                 Equality.equal env.eq
                   (normalize_at ?loc (depth + 1) env a)
                   b)
               me.me_args args
        then Some { fm_entry = me; fm_subst = [] }
        else None
      else
        match match_args ?loc ~depth env me.me_params me.me_args args with
        | None -> None
        | Some subst ->
            if
              List.for_all
                (fun constr ->
                  match subst_constr_list subst constr with
                  | CModel (c', args') ->
                      lookup_model ?loc ~depth:(depth + 1) env c' args'
                      <> None
                  | CSame (a, b) ->
                      Equality.equal env.eq
                        (normalize_at ?loc (depth + 1) env a)
                        (normalize_at ?loc (depth + 1) env b))
                me.me_constrs
            then Some { fm_entry = me; fm_subst = subst }
            else None)
    env.models

(* One-way matching of a parameterized model's argument patterns against
   (already normalized) actual types.  Pattern positions without pattern
   variables are compared up to the equality relation; constructor
   positions above pattern variables are matched structurally against
   the representative of the actual type. *)
and match_args ?loc ~depth env params pats args : (string * ty) list option =
  let param_set = Sset.of_list params in
  let has_param t = not (Sset.is_empty (Sset.inter (ftv t) param_set)) in
  let rec go subst pat arg =
    match pat with
    | TVar a when Sset.mem a param_set -> (
        match List.assoc_opt a subst with
        | Some bound ->
            if Equality.equal env.eq bound arg then Some subst else None
        | None -> Some ((a, arg) :: subst))
    | _ when not (has_param pat) ->
        if
          Equality.equal env.eq (normalize_at ?loc (depth + 1) env pat) arg
        then Some subst
        else None
    | _ -> (
        let arg = Equality.repr env.eq arg in
        match (pat, arg) with
        | TList p, TList a -> go subst p a
        | TArrow (ps, pr), TArrow (as_, ar)
          when List.length ps = List.length as_ ->
            go_list subst (ps @ [ pr ]) (as_ @ [ ar ])
        | TTuple ps, TTuple as_ when List.length ps = List.length as_ ->
            go_list subst ps as_
        | TAssoc (pc, ps, psn), TAssoc (ac, as_, asn)
          when String.equal pc ac && String.equal psn asn
               && List.length ps = List.length as_ ->
            go_list subst ps as_
        | _ -> None)
  and go_list subst ps as_ =
    match (ps, as_) with
    | [], [] -> Some subst
    | p :: ps, a :: as_ -> (
        match go subst p a with
        | Some subst -> go_list subst ps as_
        | None -> None)
    | _ -> None
  in
  if List.length pats <> List.length args then None
  else
    match go_list [] pats args with
    | Some subst -> Some subst
    | None -> None

(** All models currently in scope for concept [c] (diagnostics). *)
let models_of_concept env c =
  List.filter (fun me -> String.equal me.me_concept c) env.models

(* List the in-scope candidates (argument patterns included) so a
   near-miss — wrong argument type, missing where-clause — is visible
   without re-reading the program. *)
let no_model_notes env c =
  match models_of_concept env c with
  | [] -> [ Diag.note "no models of %s are in scope" c ]
  | candidates ->
      [
        Diag.note "models of %s in scope: %s" c
          (String.concat ", "
             (List.map
                (fun me ->
                  Pretty.constr_to_string (CModel (me.me_concept, me.me_args)))
                candidates));
      ]

(** Type equality and representatives, normalizing projections through
    parameterized models first.  These are the operations the checker
    uses everywhere. *)
let ty_eq ?loc env a b =
  ty_equal a b
  || Equality.equal env.eq (normalize ?loc env a) (normalize ?loc env b)

let ty_repr ?loc env t = Equality.repr env.eq (normalize ?loc env t)

let ty_repr_canonical ?loc env t =
  Equality.repr_canonical env.eq (normalize ?loc env t)

let fresh env base = Gensym.fresh env.gensym base
