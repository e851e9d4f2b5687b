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

type t = {
  vars : ty Smap.t;
  tyvars : Sset.t;
  concepts : concept_decl Smap.t;
  models : model_entry list;  (** newest first; lookup order = shadowing *)
  named_models : model_entry Smap.t;
      (** named models (Section 6): declared but only active under
          [using] *)
  eq : Equality.t;
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
  resolve_cache : (int * string * ty list, found_model option) Hashtbl.t;
      (** memoized model resolution, keyed on (scope generation,
          concept, raw argument types); shared by every environment
          derived from the same {!create} — in particular by every
          program checked against one session's prelude scope *)
  diag : Diag.engine ref;
      (** warning sink, shared by every environment derived from the
          same {!create}; recovering drivers swap in their own engine
          for the duration of a run *)
  family : int;
      (** uniquely names the {!create} call this environment derives
          from.  Frames produced while checking under one family (a
          type alias's, in cached compilation units) may hold
          environments and their shared mutable state (the gensym, the
          resolution cache), so they are only replayable under the same
          family — {!Fg_core.Unit} keys its cache on this. *)
}

let family_supply = Atomic.make 0

let create ?(resolution = Resolution.Lexical) ?(escape_check = true) () =
  {
    vars = Smap.empty;
    tyvars = Sset.empty;
    concepts = Smap.empty;
    models = [];
    named_models = Smap.empty;
    eq = Equality.empty ();
    gensym = Gensym.create ();
    resolution;
    escape_check;
    global_models = ref [];
    scope_gen = 0;
    gen_supply = ref 0;
    resolve_cache = Hashtbl.create 256;
    diag = ref (Diag.engine ());
    family = Atomic.fetch_and_add family_supply 1;
  }

let with_fresh_family env =
  { env with family = Atomic.fetch_and_add family_supply 1 }

(* A fresh scope generation.  The supply is shared and monotone, so a
   generation uniquely names one (models, eq) pair for the lifetime of
   the cache — results recorded under one scope can never answer a
   lookup made under another (e.g. two programs declaring different
   models of the same concept each get private generations). *)
let next_gen env = { env with scope_gen = (incr env.gen_supply; !(env.gen_supply)) }

(* ------------------------------------------------------------------ *)
(* Extension                                                           *)

let bind_var env x t = { env with vars = Smap.add x t env.vars }

let bind_tyvars env tvs =
  { env with tyvars = List.fold_left (fun s t -> Sset.add t s) env.tyvars tvs }

let bind_concept env (d : concept_decl) =
  { env with concepts = Smap.add d.c_name d env.concepts }

let bind_model env me = next_gen { env with models = me :: env.models }

let bind_named_model env name me =
  (* named models are inert until [using] activates them (which goes
     through {!bind_model}), so the scope generation is unchanged *)
  { env with named_models = Smap.add name me env.named_models }

let lookup_named_model env name = Smap.find_opt name env.named_models

let assume env a b = next_gen { env with eq = Equality.assume env.eq a b }

let assume_all env pairs =
  next_gen { env with eq = Equality.assume_all env.eq pairs }

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
    are resolved here, by rewriting, before any equality query. *)
let rec normalize ?loc ?(depth = 0) env (t : ty) : ty =
  check_depth ?loc depth (fun () -> Pretty.ty_to_string t);
  let norm t = normalize ?loc ~depth env t in
  match t with
  | TBase _ | TVar _ -> t
  | TArrow (args, ret) -> TArrow (List.map norm args, norm ret)
  | TTuple ts -> TTuple (List.map norm ts)
  | TList t -> TList (norm t)
  | TForall _ -> t (* alpha-opaque under equality; leave as written *)
  | TAssoc (c, args, s) -> (
      let args' = List.map norm args in
      match lookup_model ?loc ~depth:(depth + 1) env c args' with
      | Some { fm_entry; fm_subst } -> (
          match Smap.find_opt s fm_entry.me_assoc with
          | Some def ->
              let def' = subst_ty_list fm_subst def in
              if ty_equal def' (TAssoc (c, args', s)) then def'
              else normalize ?loc ~depth:(depth + 1) env def'
          | None -> TAssoc (c, args', s))
      | None -> TAssoc (c, args', s))

(** Find the innermost model of [c<args>] in scope.  Ground models and
    proxies match when their arguments are equal (up to the equality
    relation); parameterized models match when their argument patterns
    match and their own requirements resolve recursively.
    Innermost-first search implements lexical shadowing (Section 3.2). *)
and lookup_model ?loc ?(depth = 0) env c args : found_model option =
  Telemetry.record_model_lookup ();
  let key = (env.scope_gen, c, args) in
  match Hashtbl.find_opt env.resolve_cache key with
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
      (* Workload profiles count successful resolutions at the same
         miss-only site, so the hot list ranks fresh decisions, not
         cache replays. *)
      (if r <> None && Profile.collecting () then
         Profile.record_resolution
           (Pretty.constr_to_string (CModel (c, args))));
      Hashtbl.replace env.resolve_cache key r;
      r

and lookup_model_uncached ?loc ~depth env c args : found_model option =
  check_depth ?loc depth (fun () ->
      Pretty.constr_to_string (CModel (c, args)));
  let args = List.map (normalize ?loc ~depth:(depth + 1) env) args in
  List.find_map
    (fun me ->
      if not (String.equal me.me_concept c) then None
      else if me.me_params = [] then
        if
          List.length me.me_args = List.length args
          && List.for_all2
               (fun a b ->
                 Equality.equal env.eq
                   (normalize ?loc ~depth:(depth + 1) env a)
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
                        (normalize ?loc ~depth:(depth + 1) env a)
                        (normalize ?loc ~depth:(depth + 1) env b))
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
          Equality.equal env.eq (normalize ?loc ~depth:(depth + 1) env pat) arg
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

let fresh env base = Gensym.fresh env.gensym base
