(** The System FG type checker and its type-directed translation to
    System F (paper Figures 9 and 13, presented as one judgment
    [Γ ⊢ e : τ ⇒ f]).

    Checking and translation are computed together, exactly as in the
    paper: models become let-bound dictionary tuples (MDL), type
    abstractions gain a type parameter per associated type and a
    dictionary parameter per requirement (TABS), type applications are
    given the representative of each associated type and the dictionary
    of each matched model (TAPP), and member accesses become [nth]
    projection chains (MEM).  Concept declarations erase (CPT). *)

open Ast
open Fg_util
module F = Fg_systemf.Ast
module FPrims = Fg_systemf.Prims
module Smap = Names.Smap
module Sset = Names.Sset

(* Rule-firing coverage: one stable probe per judgment arm, so the
   guided fuzzer (and the fleet merging its maps) can tell which
   static-semantics paths a program exercised.  Hits are single atomic
   increments — negligible next to the work each arm already does. *)
let p_let = Coverage.probe "check.let"
let p_concept = Coverage.probe "check.concept"
let p_concept_defaults = Coverage.probe "check.concept.defaults"
let p_using = Coverage.probe "check.using"
let p_alias = Coverage.probe "check.alias"
let p_var = Coverage.probe "check.var"
let p_lit = Coverage.probe "check.lit"
let p_prim = Coverage.probe "check.prim"
let p_app = Coverage.probe "check.app.ground"
let p_app_implicit = Coverage.probe "check.app.implicit"
let p_abs = Coverage.probe "check.abs"
let p_tyabs = Coverage.probe "check.tyabs"
let p_tyabs_where = Coverage.probe "check.tyabs.where"
let p_tyapp = Coverage.probe "check.tyapp"
let p_tyapp_where = Coverage.probe "check.tyapp.where"
let p_tuple = Coverage.probe "check.tuple"
let p_nth = Coverage.probe "check.nth"
let p_fix = Coverage.probe "check.fix"
let p_if = Coverage.probe "check.if"
let p_member = Coverage.probe "check.member"
let p_infer = Coverage.probe "check.infer"
let p_model_ground = Coverage.probe "check.model.ground"
let p_model_param = Coverage.probe "check.model.param"
let p_model_named = Coverage.probe "check.model.named"
let p_model_defaults = Coverage.probe "check.model.defaults"

(* ------------------------------------------------------------------ *)
(* Position-index sink                                                 *)

(* The workspace language service needs "what type does the expression
   at this span have" and "which model did this constrained call
   resolve to" — information the judgment computes and then folds away.
   A domain-local sink taps it during checking: [None] (the default
   everywhere, including batch worker domains) costs one DLS read per
   node and changes nothing, so cached-unit byte-identity is
   unaffected.  Domain-local rather than global because worker domains
   check concurrently; within a domain the workspace serializes its
   checks. *)

type index_entry =
  | Itype of Loc.t * ty  (** inferred type of the expression at a span *)
  | Imodel of Loc.t * string * ty list
      (** a constraint [C<args>] resolved to a model at this span *)

let sink_key : (index_entry -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_index_sink f thunk =
  let prev = Domain.DLS.get sink_key in
  Domain.DLS.set sink_key (Some f);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set sink_key prev)
    thunk

let index_sink () = Domain.DLS.get sink_key

let record_index entry =
  match Domain.DLS.get sink_key with
  | None -> ()
  | Some f -> f entry

(** Embed a System F type into FG (primitive type schemes). *)
let rec ty_of_f : F.ty -> ty = function
  | F.TBase b -> TBase b
  | F.TVar a -> TVar a
  | F.TArrow (args, ret) -> TArrow (List.map ty_of_f args, ty_of_f ret)
  | F.TTuple ts -> TTuple (List.map ty_of_f ts)
  | F.TList t -> TList (ty_of_f t)
  | F.TForall (tvs, body) -> TForall (tvs, [], ty_of_f body)

let type_mismatch ?loc ~expected ~got what =
  Diag.type_error ~code:"FG0303" ?loc "%s: expected %s but got %s" what
    (Pretty.ty_to_string expected)
    (Pretty.ty_to_string got)

let require_equal ?loc env ~expected ~got what =
  if not (Env.ty_eq ?loc env expected got) then
    type_mismatch ?loc ~expected ~got what

(* Term-variable occurrences of a System F term (binders are not
   subtracted — dictionary variables are gensym-fresh, so any occurrence
   is a use).  Drives the unused-where-clause-constraint warning. *)
let rec f_term_vars acc (f : F.exp) =
  match f.desc with
  | F.Var x -> Sset.add x acc
  | F.Lit _ | F.Prim _ -> acc
  | F.App (g, args) -> List.fold_left f_term_vars (f_term_vars acc g) args
  | F.Abs (_, b) | F.TyAbs (_, b) | F.TyApp (b, _) | F.Nth (b, _)
  | F.Fix (_, _, b) ->
      f_term_vars acc b
  | F.Let (_, a, b) -> f_term_vars (f_term_vars acc a) b
  | F.Tuple es -> List.fold_left f_term_vars acc es
  | F.If (a, b, c) -> f_term_vars (f_term_vars (f_term_vars acc a) b) c

(* ------------------------------------------------------------------ *)
(* Concept declarations (CPT)                                          *)

(* Refinements and requirements name concepts, resolved in the concept
   table of wherever they are used, so a declaration that shadows a
   concept also rebinds it for every older concept that mentions it.
   Such a declaration can close a cycle ([concept B in concept A
   { refines B } in concept B { refines A }]), which would send every
   query about the lattice round it forever.  Reject [d] if its
   refinements and requirements, resolved with its own name bound to
   [d], lead back to that name.  The table below [d] has no cycle (each
   declaration in it passed this check), so this one walk suffices. *)
let check_acyclic ?loc env (d : concept_decl) =
  let walked = Hashtbl.create 8 in
  let edges (decl : concept_decl) =
    List.map (fun (c, _) -> ("refines", c)) decl.c_refines
    @ List.map (fun (c, _) -> ("requires", c)) decl.c_requires
  in
  let rec reach steps from (rel, c) =
    let steps = (from, rel, c) :: steps in
    if String.equal c d.c_name then
      Diag.wf_error ?loc "concept %s cannot refine or require itself: %s"
        d.c_name
        (String.concat ", "
           (List.rev_map (fun (a, r, b) -> a ^ " " ^ r ^ " " ^ b) steps))
    else if not (Hashtbl.mem walked c) then begin
      Hashtbl.add walked c ();
      List.iter (reach steps c) (edges (Env.lookup_concept_exn ?loc env c))
    end
  in
  List.iter (reach [] d.c_name) (edges d)

let check_concept_decl ?loc env (d : concept_decl) : unit =
  if d.c_params = [] then
    Diag.wf_error ?loc "concept %s must have at least one type parameter"
      d.c_name;
  (match Names.find_duplicate d.c_params with
  | Some p ->
      Diag.wf_error ~code:"FG0204" ?loc
        "duplicate type parameter '%s' in concept %s" p d.c_name
  | None -> ());
  (match Names.find_duplicate d.c_assoc with
  | Some s ->
      Diag.wf_error ~code:"FG0204" ?loc
        "duplicate associated type '%s' in concept %s" s d.c_name
  | None -> ());
  (match Names.find_duplicate (List.map fst d.c_members) with
  | Some x ->
      Diag.wf_error ~code:"FG0204" ?loc "duplicate member '%s' in concept %s"
        x d.c_name
  | None -> ());
  List.iter
    (fun p ->
      if Env.tyvar_in_scope env p then
        Diag.wf_error ~code:"FG0205" ?loc
          "type parameter '%s' of concept %s shadows a type variable in scope"
          p d.c_name)
    d.c_params;
  (* Refinement arguments are checked left to right; each refinement may
     mention the concept's parameters, its own associated types, and the
     associated types of earlier refinements. *)
  (* Inherited associated-type names become visible, in the order a
     depth-first walk of the refinements first meets them.  Each concept
     is walked once: a diamond reaches its base along every path, but
     the names it contributes are the same. *)
  let walked = Hashtbl.create 8 in
  let visible_set = Hashtbl.create 8 in
  let rec walk_names rev_visible c =
    if Hashtbl.mem walked c then rev_visible
    else begin
      Hashtbl.add walked c ();
      let decl = Env.lookup_concept_exn ?loc env c in
      let rev_visible =
        List.fold_left
          (fun vis s ->
            if Hashtbl.mem visible_set s then vis
            else (Hashtbl.add visible_set s (); s :: vis))
          rev_visible decl.c_assoc
      in
      List.fold_left
        (fun vis (c'', _) -> walk_names vis c'')
        rev_visible decl.c_refines
    end
  in
  let visible =
    List.rev
      (List.fold_left
         (fun rev_visible (c', rargs) ->
           let decl' = Env.lookup_concept_exn ?loc env c' in
           Types.arity_check ?loc "concept" c'
             ~expected:(List.length decl'.c_params)
             ~got:(List.length rargs);
           if String.equal c' d.c_name then
             Diag.wf_error ?loc "concept %s cannot refine itself" d.c_name;
           let env_vis =
             Env.bind_tyvars env (d.c_params @ d.c_assoc @ List.rev rev_visible)
           in
           List.iter (Types.wf_ty ?loc env_vis) rargs;
           walk_names rev_visible c')
         [] d.c_refines)
  in
  (* Member types and same-type requirements may mention the refined
     concepts' associated types, both by bare name and as qualified
     projections (e.g. [same Iterator<i>.elt == int]).  Qualified
     projections are only well-formed under a model, so check them in a
     scratch environment with proxy models for every refinement —
     exactly what a where clause over the refinements would provide. *)
  let visible =
    (* The concept's own parameters and associated types shadow
       inherited associated-type names. *)
    List.filter
      (fun s -> not (List.mem s d.c_params || List.mem s d.c_assoc))
      visible
  in
  (* arity of nested requirements *)
  List.iter
    (fun (c', rargs) ->
      let decl' = Env.lookup_concept_exn ?loc env c' in
      Types.arity_check ?loc "concept" c'
        ~expected:(List.length decl'.c_params)
        ~got:(List.length rargs))
    d.c_requires;
  check_acyclic ?loc env d;
  let env_members, _plan =
    Types.process_where ?loc env
      (d.c_params @ d.c_assoc @ visible)
      (List.map
         (fun (c', rargs) -> CModel (c', rargs))
         (d.c_refines @ d.c_requires))
  in
  List.iter (fun (_, ty) -> Types.wf_ty ?loc env_members ty) d.c_members;
  List.iter
    (fun (a, b) ->
      Types.wf_ty ?loc env_members a;
      Types.wf_ty ?loc env_members b)
    d.c_same;
  (* Default member bodies are checked generically, under a proxy model
     of the concept itself (as if inside [tfun t̄ where C<t̄>]); they are
     re-elaborated per model.  Bare associated-type names are not in
     scope inside default bodies — use qualified projections. *)
  List.iter
    (fun (x, _) ->
      if not (List.mem_assoc x d.c_members) then
        Diag.wf_error ~code:"FG0206" ?loc
          "default for '%s', which is not a member of %s" x d.c_name)
    d.c_defaults

(* Structurally replace this model's associated-type projections
   [c<args>.s] by their assignments, everywhere in a type. *)
let resolve_own_projections c margs massoc ty =
  let rec go t =
    match t with
    | TBase _ | TVar _ -> t
    | TArrow (args, ret) -> TArrow (List.map go args, go ret)
    | TTuple ts -> TTuple (List.map go ts)
    | TList t -> TList (go t)
    | TAssoc (c', args, s) -> (
        let args = List.map go args in
        match List.assoc_opt s massoc with
        | Some def
          when String.equal c c'
               && List.length args = List.length margs
               && List.for_all2 ty_equal args margs ->
            go def
        | _ -> TAssoc (c', args, s))
    | TForall (tvs, constrs, body) ->
        TForall (tvs, List.map go_constr constrs, go body)
  and go_constr = function
    | CModel (c', args) -> CModel (c', List.map go args)
    | CSame (a, b) -> CSame (go a, go b)
  in
  go ty

(* A model's associated-type assignments as equations: facts inside
   its own context, and in its body's scope for a ground model. *)
let own_equations (d : model_decl) =
  List.map (fun (s, ty) -> (TAssoc (d.m_concept, d.m_args, s), ty)) d.m_assoc

(* ------------------------------------------------------------------ *)
(* Declaration frames                                                  *)

(* What checking one declaration leaves behind for its body, as plain
   data: [extend] adds the declaration's bindings to an environment
   and [wrap] rebuilds the declaration's result around its body's.
   Frames hold no functions, so a checked unit — and a whole checked
   prelude — marshals without [Marshal.Closures]. *)
type frame =
  | Flet of { loc : Loc.t; x : string; ty : ty; elab : exp; f : F.exp }
  | Fconcept of { loc : Loc.t; d : concept_decl; escape_check : bool }
  | Fmodel of {
      loc : Loc.t;
      d : model_decl;  (** members elaborated *)
      entry : Env.model_entry;
      dict : F.exp;  (** the dictionary's right-hand side *)
    }
  | Fusing of { loc : Loc.t; m : string; entry : Env.model_entry }
  | Falias of { loc : Loc.t; t : string; ty : ty; env : Env.t }
      (** [env] is the alias's own environment: its type is translated
          after the body, when the frame is wrapped *)

let extend env = function
  | Flet { x; ty; _ } -> Env.bind_var env x ty
  | Fconcept { d; _ } -> Env.bind_concept env d
  | Fmodel { d = { m_name = Some m; _ }; entry; _ } ->
      Env.bind_named_model env m entry
  | Fmodel { d; entry; _ } ->
      let base =
        if d.m_params <> [] then env else Env.assume_all env (own_equations d)
      in
      Env.bind_model base entry
  | Fusing { entry; _ } -> Env.bind_model env entry
  | Falias { t; ty; _ } -> Env.assume (Env.bind_tyvars env [ t ]) (TVar t) ty

let wrap frame ((tbody, body_elab, body') : ty * exp * F.exp) =
  match frame with
  | Flet { loc; x; elab; f; _ } ->
      (tbody, let_ ~loc x elab body_elab, F.let_ ~loc x f body')
  | Fconcept { loc; d; escape_check } ->
      if escape_check && Sset.mem d.c_name (concept_names tbody) then
        Diag.type_error ~code:"FG0308" ~loc
          "concept %s escapes its scope in the type %s of the body" d.c_name
          (Pretty.ty_to_string tbody);
      (tbody, concept_decl ~loc d body_elab, body')
  | Fmodel { loc; d; entry; dict } ->
      (* The model (and the meaning of its associated-type projections)
         goes out of scope here; resolve this model's projections in the
         result type so they do not escape. *)
      let tbody =
        if d.m_params <> [] then tbody
        else resolve_own_projections d.m_concept d.m_args d.m_assoc tbody
      in
      ( tbody,
        model_decl ~loc d body_elab,
        F.let_ ~loc entry.Env.me_dict dict body' )
  | Fusing { loc; m; _ } -> (tbody, using ~loc m body_elab, body')
  | Falias { loc; t; ty; env } ->
      (* translated after the body, as the fused judgment did, so the
         fresh-name supply is consumed in the same order *)
      let f_ty = Types.translate_ty ~loc env ty in
      ( subst_ty_list [ (t, ty) ] tbody,
        type_alias ~loc t ty body_elab,
        F.subst_ty_exp (Smap.singleton t f_ty) body' )

(* ------------------------------------------------------------------ *)
(* The main judgment                                                   *)

(* The judgment returns three things: the FG type, an ELABORATED FG
   expression (implicit instantiations made explicit, so the direct
   interpreter can run it), and the System F translation.

   Declaration forms (concept / model / let / using / type alias) are
   factored through [check_decl_parts], which does all of a
   declaration's own work BEFORE the body is checked and returns its
   frame.  [check] extends and wraps with it on the spot;
   {!Fg_core.Unit.walk} walks a whole declaration spine once and keeps
   the environment and the frames around — that is what lets a
   {!Session} check a shared prelude once and reuse it for every
   program. *)
let rec check (env : Env.t) (e : exp) : ty * exp * F.exp =
  match check_decl_parts env e with
  | Some (frame, body) -> wrap frame (check (extend env frame) body)
  | None -> check_exp env e

(* One declaration node: [Some (frame, body)] when [e] is a
   declaration with body [body].  [extend] applies the frame to the
   environment the declaration was checked under, or to any environment
   of the same family binding the same dependencies (that is what lets
   {!Fg_core.Unit} replay a cached declaration without re-checking it),
   and [wrap] turns the body's checked triple into the declaration's.
   All side conditions of the declaration itself (well-formedness,
   member checking, dictionary construction, fresh-name generation)
   happen here, eagerly, in exactly the order the fused judgment
   performed them. *)
and check_decl_parts (env : Env.t) (e : exp) : (frame * exp) option =
  let loc = e.loc in
  match e.desc with
  | Let (x, rhs, body) ->
      Coverage.hit p_let;
      let ty, elab, f = check env rhs in
      Some (Flet { loc; x; ty; elab; f }, body)
  | ConceptDecl (d, body) ->
      Coverage.hit p_concept;
      check_concept_decl ~loc env d;
      let env' = Env.bind_concept env d in
      (* Generic validation of default bodies: check each under a proxy
         model of the concept at its own parameters. *)
      if d.c_defaults <> [] then begin
        Coverage.hit p_concept_defaults;
        let fresh_params = List.map (fun p -> Env.fresh env' p) d.c_params in
        let env_d, _ =
          Types.process_where ~loc env' fresh_params
            [ CModel (d.c_name, List.map (fun p -> TVar p) fresh_params) ]
        in
        let subst =
          Types.instantiation_subst ~loc env_d
            (d.c_name, List.map (fun p -> TVar p) fresh_params)
        in
        List.iter
          (fun (x, default) ->
            let expected = subst_ty_list subst (List.assoc x d.c_members) in
            let got, _, _ =
              check env_d (subst_ty_exp (subst_of_list subst) default)
            in
            if not (Env.ty_eq ~loc env_d expected got) then
              type_mismatch ~loc ~expected ~got
                (Printf.sprintf "default for member '%s' of concept %s" x
                   d.c_name))
          d.c_defaults
      end;
      Some (Fconcept { loc; d; escape_check = env.Env.escape_check }, body)
  | ModelDecl (d, body) -> Some (check_model_decl env ~loc d, body)
  | Using (m, body) -> (
      match Env.lookup_named_model env m with
      | None ->
          let candidates =
            List.map fst (Smap.bindings env.Env.named_models)
          in
          let notes =
            match Strutil.nearest ~candidates m with
            | Some near -> [ Diag.suggest near ]
            | None -> []
          in
          Diag.resolve_error ~code:"FG0403" ~notes ~loc
            "unknown named model '%s'" m
      | Some entry ->
          Coverage.hit p_using;
          Some (Fusing { loc; m; entry }, body))
  | TypeAlias (t, ty, body) ->
      Coverage.hit p_alias;
      Types.wf_ty ~loc env ty;
      if Env.tyvar_in_scope env t then
        Diag.wf_error ~code:"FG0205" ~loc
          "type alias '%s' shadows a type variable in scope" t;
      Some (Falias { loc; t; ty; env }, body)
  | _ -> None

and check_exp (env : Env.t) (e : exp) : ty * exp * F.exp =
  let ((ty, _, _) as r) = check_exp_desc env e in
  if not (Fg_util.Loc.is_dummy e.loc) then record_index (Itype (e.loc, ty));
  r

and check_exp_desc (env : Env.t) (e : exp) : ty * exp * F.exp =
  let loc = e.loc in
  match e.desc with
  | Var x -> (
      match Env.lookup_var env x with
      | Some t ->
          Coverage.hit p_var;
          (t, e, F.var ~loc x)
      | None ->
          let notes =
            match Strutil.nearest ~candidates:(Env.var_names env) x with
            | Some near -> [ Diag.suggest near ]
            | None -> []
          in
          Diag.type_error ~code:"FG0302" ~notes ~loc "unbound variable '%s'" x
      )
  | Lit (LInt n) ->
      Coverage.hit p_lit;
      (TBase TInt, e, F.int ~loc n)
  | Lit (LBool b) ->
      Coverage.hit p_lit;
      (TBase TBool, e, F.bool ~loc b)
  | Lit LUnit ->
      Coverage.hit p_lit;
      (TBase TUnit, e, F.unit ~loc ())
  | Prim p ->
      Coverage.hit p_prim;
      let info = FPrims.lookup_exn ~loc p in
      (ty_of_f info.ty, e, F.prim ~loc p)
  | App (f, args) -> (
      let tf, f_elab, f' = check env f in
      let checked = List.map (check env) args in
      let arg_elabs = List.map (fun (_, a, _) -> a) checked in
      let finish params ret head_elab head =
        if List.length params <> List.length args then
          Diag.type_error ~code:"FG0304" ~loc
            "function expects %d argument(s) but is applied to %d"
            (List.length params) (List.length args);
        let args' =
          List.map2
            (fun param (ta, a_elab, a') ->
              require_equal ~loc:a_elab.loc env ~expected:param ~got:ta
                "argument";
              a')
            params checked
        in
        (ret, app ~loc head_elab arg_elabs, F.app ~loc head args')
      in
      match Env.ty_repr ~loc env tf with
      | TArrow (params, ret) ->
          Coverage.hit p_app;
          finish params ret f_elab f'
      | TForall (tvs, _, TArrow (params, _)) as poly ->
          Coverage.hit p_app_implicit;
          (* Implicit instantiation (Section 6, in the decidable
             restriction): infer the type arguments by first-order
             matching of the parameter types against the argument
             types, then proceed exactly as an explicit TyApp. *)
          if List.length params <> List.length args then
            Diag.type_error ~code:"FG0304" ~loc
              "generic function expects %d argument(s) but is applied to %d"
              (List.length params) (List.length args);
          let actuals = List.map (fun (ta, _, _) -> ta) checked in
          let inferred = infer_ty_args ~loc env tvs params actuals in
          let inst_ty, inst_f = elaborate_tyapp env ~loc (poly, f') inferred in
          let inst_elab = tyapp ~loc f_elab inferred in
          (match Env.ty_repr ~loc env inst_ty with
          | TArrow (params, ret) -> finish params ret inst_elab inst_f
          | t ->
              Diag.type_error ~code:"FG0305" ~loc
                "implicitly instantiated function has non-function type %s"
                (Pretty.ty_to_string t))
      | t ->
          Diag.type_error ~code:"FG0305" ~loc
            "applied expression has non-function type %s"
            (Pretty.ty_to_string t))
  | Abs (params, body) ->
      Coverage.hit p_abs;
      (match Names.find_duplicate (List.map fst params) with
      | Some x -> Diag.type_error ~code:"FG0204" ~loc "duplicate parameter '%s'" x
      | None -> ());
      let env' =
        List.fold_left
          (fun acc (x, t) ->
            Types.wf_ty ~loc env t;
            Env.bind_var acc x t)
          env params
      in
      let tbody, body_elab, body' = check env' body in
      let params' =
        List.map (fun (x, t) -> (x, Types.translate_ty ~loc env t)) params
      in
      ( TArrow (List.map snd params, tbody),
        abs ~loc params body_elab,
        F.abs ~loc params' body' )
  | TyAbs (tvs, constrs, body) ->
      Coverage.hit p_tyabs;
      if constrs <> [] then Coverage.hit p_tyabs_where;
      let env', plan, dict_tys = Types.process_where_dicts ~loc env tvs constrs in
      let tbody, body_elab, body' = check env' body in
      (* Representative selection inside the body may have rewritten
         associated-type projections to their internal fresh variables
         (s'); those must not escape the abstraction, so rewrite them
         back to the projections they stand for. *)
      let tbody =
        subst_ty_list
          (List.map
             (fun (v, (c, args, s)) -> (v, TAssoc (c, args, s)))
             plan.Types.p_slots)
          tbody
      in
      (* Unused-constraint warning: a where-clause requirement whose
         dictionary is never consulted and whose concept contributes no
         associated types, refinements or requirements (those can
         satisfy the body through the type level without touching the
         dictionary) only narrows the callers for nothing. *)
      if not (Types.no_requirements plan) then begin
        let used = lazy (f_term_vars Sset.empty body') in
        List.iter
          (fun (dv, (cname, cargs)) ->
            match Env.lookup_concept env' cname with
            | Some decl
              when decl.c_assoc = [] && decl.c_refines = []
                   && decl.c_requires = [] && decl.c_same = []
                   && not (Sset.mem dv (Lazy.force used)) ->
                Diag.warn
                  !(env.Env.diag)
                  ~code:"FG0702" ~loc Typecheck
                  "where-clause constraint %s is never used in this \
                   abstraction"
                  (Pretty.constr_to_string (CModel (cname, cargs)))
            | _ -> ())
          plan.Types.p_dicts
      end;
      let fg_ty = TForall (tvs, constrs, tbody) in
      let f_exp =
        if Types.no_requirements plan then F.tyabs ~loc tvs body'
        else
          F.tyabs ~loc
            (tvs @ List.map fst plan.Types.p_slots)
            (F.abs ~loc
               (List.map2
                  (fun (d, _) dty -> (d, dty))
                  plan.Types.p_dicts dict_tys)
               body')
      in
      (fg_ty, tyabs ~loc tvs constrs body_elab, f_exp)
  | TyApp (f, tys) ->
      let tf, f_elab, f' = check env f in
      let ty, f_exp = elaborate_tyapp env ~loc (Env.ty_repr ~loc env tf, f') tys in
      (ty, tyapp ~loc f_elab tys, f_exp)
  | Tuple es ->
      Coverage.hit p_tuple;
      let checked = List.map (check env) es in
      ( TTuple (List.map (fun (t, _, _) -> t) checked),
        tuple ~loc (List.map (fun (_, a, _) -> a) checked),
        F.tuple ~loc (List.map (fun (_, _, f) -> f) checked) )
  | Nth (e0, k) -> (
      let t0, e0_elab, e0' = check env e0 in
      match Env.ty_repr ~loc env t0 with
      | TTuple ts when k >= 0 && k < List.length ts ->
          Coverage.hit p_nth;
          (List.nth ts k, nth ~loc e0_elab k, F.nth ~loc e0' k)
      | TTuple ts ->
          Diag.type_error ~loc "projection %d out of bounds for %d-tuple" k
            (List.length ts)
      | t ->
          Diag.type_error ~loc "nth applied to non-tuple type %s"
            (Pretty.ty_to_string t))
  | Fix (x, t, body) ->
      Coverage.hit p_fix;
      Types.wf_ty ~loc env t;
      let tbody, body_elab, body' = check (Env.bind_var env x t) body in
      require_equal ~loc env ~expected:t ~got:tbody "fix body";
      ( t,
        fix ~loc x t body_elab,
        F.fix ~loc x (Types.translate_ty ~loc env t) body' )
  | If (c, t, f) ->
      Coverage.hit p_if;
      let tc, c_elab, c' = check env c in
      require_equal ~loc:c.loc env ~expected:(TBase TBool) ~got:tc
        "if condition";
      let tt, t_elab, t' = check env t in
      let tf, f_elab, f' = check env f in
      require_equal ~loc env ~expected:tt ~got:tf "else branch";
      (tt, if_ ~loc c_elab t_elab f_elab, F.if_ ~loc c' t' f')
  | Member (c, args, x) -> (
      ignore (Env.lookup_concept_exn ~loc env c);
      List.iter (Types.wf_ty ~loc env) args;
      match Env.lookup_model ~loc env c args with
      | None ->
          Diag.resolve_error ~code:"FG0402" ~notes:(Env.no_model_notes env c)
            ~loc "no model of %s in scope for member access"
            (Pretty.constr_to_string (CModel (c, args)))
      | Some fm -> (
          match Types.member_lookup ~loc env (c, args) x with
          | None ->
              Diag.type_error ~code:"FG0206" ~loc
                "concept %s has no member '%s'" c x
          | Some (ty, path) ->
              Coverage.hit p_member;
              record_index (Imodel (loc, c, args));
              (ty, e, F.nth_path ~loc (Types.model_dict_exp ~loc env fm) path)))
  | Let _ | ConceptDecl _ | ModelDecl _ | Using _ | TypeAlias _ ->
      (* dispatched through check_decl_parts by [check] *)
      Diag.ice "check_exp reached a declaration form"

(* MDL: check a model declaration and translate it to a let-bound
   dictionary.  A ground model becomes a tuple (Figure 7).  A
   parameterized model — [model <t̄> where C̄ => C<pat̄> {...}], the
   parameterized-instance extension of Section 6 — becomes a polymorphic
   dictionary FUNCTION: a [fix]-bound type abstraction over the
   parameters (plus associated-type slots) and a lambda over the context
   dictionaries, so instances are built on demand at each use, and the
   model may refer to itself (e.g. equality on lists recursing through
   tails). *)
(* TAPP: instantiate a (repr'd) polymorphic type at explicit type
   arguments — checking the where clause and supplying the associated
   type slots and dictionaries of the plan. *)
and elaborate_tyapp env ~loc ((tf_repr : ty), (f' : F.exp)) (tys : ty list) :
    ty * F.exp =
  match tf_repr with
  | TForall (tvs, constrs, body) ->
      Coverage.hit p_tyapp;
      if constrs <> [] then Coverage.hit p_tyapp_where;
      if List.length tvs <> List.length tys then
        Diag.type_error ~code:"FG0304" ~loc
          "type abstraction expects %d type argument(s) but got %d"
          (List.length tvs) (List.length tys);
      List.iter (Types.wf_ty ~loc env) tys;
      (* Alpha-rename the binders so the plan can be recomputed at this
         site even when the binder names are already in scope here;
         renaming does not change the plan's layout. *)
      let fresh_tvs = List.map (fun a -> Env.fresh env a) tvs in
      let rename = List.map2 (fun a b -> (a, TVar b)) tvs fresh_tvs in
      let constrs_r = List.map (subst_constr_list rename) constrs in
      let _, plan = Types.process_where ~loc env fresh_tvs constrs_r in
      let s = List.combine fresh_tvs tys in
      let s_orig = List.combine tvs tys in
      (* Check the instantiated where clause. *)
      List.iter
        (fun constr ->
          match subst_constr_list s constr with
          | CModel (c, args) -> (
              match Env.lookup_model ~loc env c args with
              | Some _ -> record_index (Imodel (loc, c, args))
              | None ->
                  Diag.resolve_error ~code:"FG0402"
                    ~notes:(Env.no_model_notes env c) ~loc
                    "no model of %s in scope"
                    (Pretty.constr_to_string (CModel (c, args))))
          | CSame (a, b) ->
              if not (Env.ty_eq ~loc env a b) then
                Diag.type_error ~code:"FG0307" ~loc
                  "same-type constraint not satisfied: %s is not equal to %s"
                  (Pretty.ty_to_string a) (Pretty.ty_to_string b))
        constrs_r;
      let result_ty = subst_ty_list s_orig body in
      let ty_args = List.map (Types.translate_ty ~loc env) tys in
      let f_exp =
        if Types.no_requirements plan then F.tyapp ~loc f' ty_args
        else begin
          let slot_actuals = Types.plan_slot_actuals ~loc env ~subst:s plan in
          let dict_actuals = Types.plan_dict_actuals ~loc env ~subst:s plan in
          F.app ~loc (F.tyapp ~loc f' (ty_args @ slot_actuals)) dict_actuals
        end
      in
      (result_ty, f_exp)
  | t ->
      Diag.type_error ~code:"FG0305" ~loc
        "type-applied expression has non-polymorphic type %s"
        (Pretty.ty_to_string t)

(* Infer type arguments for implicit instantiation by one-way matching
   of the declared parameter types (patterns over the binders) against
   the actual argument types.  Associated-type projections over
   undetermined binders cannot be inverted, so they are skipped during
   matching and checked by the ordinary argument-type comparison after
   instantiation.  Every binder must end up determined. *)
and infer_ty_args ~loc env (tvs : string list) (params : ty list)
    (actuals : ty list) : ty list =
  Coverage.hit p_infer;
  let holes = Names.Sset.of_list tvs in
  let bindings : (string, ty) Hashtbl.t = Hashtbl.create 8 in
  let rec go pat actual =
    match pat with
    | TVar a when Names.Sset.mem a holes -> (
        match Hashtbl.find_opt bindings a with
        | Some bound ->
            if not (Env.ty_eq ~loc env bound actual) then
              Diag.type_error ~code:"FG0306" ~loc
                "cannot infer type argument '%s': matched both %s and %s" a
                (Pretty.ty_to_string bound)
                (Pretty.ty_to_string actual)
        | None -> Hashtbl.replace bindings a actual)
    | _ when Names.Sset.is_empty (Names.Sset.inter (ftv pat) holes) -> ()
    | TAssoc _ -> () (* not invertible; checked after instantiation *)
    | _ -> (
        match (pat, Env.ty_repr ~loc env actual) with
        | TList p, TList a -> go p a
        | TArrow (ps, pr), TArrow (as_, ar)
          when List.length ps = List.length as_ ->
            List.iter2 go ps as_;
            go pr ar
        | TTuple ps, TTuple as_ when List.length ps = List.length as_ ->
            List.iter2 go ps as_
        | TForall _, _ -> () (* under binders: leave to the final check *)
        | p, a ->
            Diag.type_error ~code:"FG0306" ~loc
              "cannot infer type arguments: parameter type %s does not \
               match argument type %s"
              (Pretty.ty_to_string p) (Pretty.ty_to_string a))
  in
  List.iter2 go params actuals;
  List.map
    (fun a ->
      match Hashtbl.find_opt bindings a with
      | Some t -> t
      | None ->
          Diag.type_error ~code:"FG0306" ~loc
            "cannot infer type argument '%s'; instantiate explicitly with \
             [...]"
            a)
    tvs

and check_model_decl env ~loc (d : model_decl) : frame =
  let c = d.m_concept in
  let decl = Env.lookup_concept_exn ~loc env c in
  Types.arity_check ~loc "concept" c
    ~expected:(List.length decl.c_params)
    ~got:(List.length d.m_args);
  let parameterized = d.m_params <> [] in
  Coverage.hit (if parameterized then p_model_param else p_model_ground);
  if d.m_name <> None then Coverage.hit p_model_named;
  (* Parameter hygiene: every parameter must be determined by the
     modeled types, or resolution could never instantiate it. *)
  (match Names.find_duplicate d.m_params with
  | Some p -> Diag.wf_error ~code:"FG0204" ~loc "duplicate model parameter '%s'" p
  | None -> ());
  let args_ftv =
    List.fold_left
      (fun acc t -> Sset.union acc (ftv t))
      Sset.empty d.m_args
  in
  List.iter
    (fun p ->
      if not (Sset.mem p args_ftv) then
        Diag.wf_error ~loc
          "model parameter '%s' does not occur in the modeled type(s)" p)
    d.m_params;
  (* The model's own context: binders + proxy models, like a where
     clause.  For ground models this is a no-op. *)
  let env_m, ctx_plan, ctx_dict_tys =
    Types.process_where_dicts ~loc env d.m_params d.m_constrs
  in
  List.iter (Types.wf_ty ~loc env_m) d.m_args;
  (* Haskell-style ablation: models are globally unique per concept and
     argument list, wherever they are declared.  (For parameterized
     models the comparison is syntactic up to parameter renaming.) *)
  (match env.Env.resolution with
  | Resolution.Lexical -> ()
  | Resolution.Global ->
      let canon params args =
        let ren = List.mapi (fun i p -> (p, TVar (Printf.sprintf "#%d" i))) params in
        List.map (subst_ty_list ren) args
      in
      let mine = canon d.m_params d.m_args in
      if
        List.exists
          (fun (c', args') ->
            String.equal c c'
            && List.length args' = List.length mine
            && List.for_all2 ty_equal args' mine)
          !(env.Env.global_models)
      then
        Diag.resolve_error ~code:"FG0404" ~loc
          "overlapping model of %s (global-resolution mode rejects \
           overlapping models anywhere in the program)"
          (Pretty.constr_to_string (CModel (c, d.m_args)));
      env.Env.global_models := (c, mine) :: !(env.Env.global_models));
  (* Associated-type assignments: exactly the required ones. *)
  (match Names.find_duplicate (List.map fst d.m_assoc) with
  | Some s ->
      Diag.wf_error ~code:"FG0204" ~loc
        "duplicate associated type assignment '%s'" s
  | None -> ());
  List.iter
    (fun (s, ty) ->
      if not (List.mem s decl.c_assoc) then
        Diag.wf_error ~code:"FG0206" ~loc
          "concept %s has no associated type '%s'" c s;
      Types.wf_ty ~loc env_m ty)
    d.m_assoc;
  List.iter
    (fun s ->
      if not (List.mem_assoc s d.m_assoc) then
        Diag.wf_error ~code:"FG0206" ~loc
          "model of %s does not assign associated type '%s'" c s)
    decl.c_assoc;
  (* The equality context in which requirements are interpreted: the
     model's own associated-type assignments are facts. *)
  let env_eq = Env.assume_all env_m (own_equations d) in
  let dict_var = Env.fresh env c in
  let entry =
    {
      Env.me_concept = c;
      me_params = d.m_params;
      me_constrs = d.m_constrs;
      me_args = d.m_args;
      me_dict = dict_var;
      me_path = [];
      me_assoc =
        List.fold_left
          (fun m (s, ty) -> Smap.add s ty m)
          Smap.empty d.m_assoc;
      me_proxy = false;
    }
  in
  (* Refinement requirement: a model of every refined concept must be
     resolvable. *)
  let refine_entries =
    List.map
      (fun (c', rargs') ->
        match Env.lookup_model ~loc env_eq c' rargs' with
        | Some fm -> fm
        | None ->
            let shown =
              CModel (c', List.map (Env.ty_repr ~loc env_eq) rargs')
            in
            Diag.resolve_error ~loc
              "model of %s requires %s, but no model of %s is in scope"
              (Pretty.constr_to_string (CModel (c, d.m_args)))
              (Pretty.constr_to_string shown)
              (Pretty.constr_to_string shown))
      (Types.refinements ~loc env_eq (c, d.m_args)
      @ Types.requires ~loc env_eq (c, d.m_args))
  in
  (* Same-type requirements of the concept must hold. *)
  List.iter
    (fun (a, b) ->
      if not (Env.ty_eq ~loc env_eq a b) then
        Diag.type_error ~code:"FG0307" ~loc
          "model of %s violates same-type requirement: %s is not equal to %s"
          (Pretty.constr_to_string (CModel (c, d.m_args)))
          (Pretty.ty_to_string a) (Pretty.ty_to_string b))
    (Types.same_requirements ~loc env_eq (c, d.m_args));
  (* Member definitions: exactly the required ones, at the required
     types (with parameters and associated types substituted).
     Parameterized models may refer to themselves (recursive
     instances), so the entry is in scope for their member bodies. *)
  (match Names.find_duplicate (List.map fst d.m_members) with
  | Some x ->
      Diag.wf_error ~code:"FG0204" ~loc "duplicate member definition '%s'" x
  | None -> ());
  List.iter
    (fun (x, _) ->
      if not (List.mem_assoc x decl.c_members) then
        Diag.wf_error ~code:"FG0206" ~loc "concept %s has no member '%s'" c x)
    d.m_members;
  let member_subst = Types.instantiation_subst ~loc env_eq (c, d.m_args) in
  (* Missing members fall back to the concept's defaults, instantiated
     at this model's types.  Defaults may call the model's other members
     through the dictionary being defined, so their presence puts the
     model itself in scope and fix-binds the dictionary. *)
  let uses_defaults =
    List.exists
      (fun (x, _) ->
        (not (List.mem_assoc x d.m_members))
        && List.mem_assoc x decl.c_defaults)
      decl.c_members
  in
  if uses_defaults then Coverage.hit p_model_defaults;
  let env_members =
    if parameterized || uses_defaults then Env.bind_model env_eq entry
    else env_eq
  in
  let member_results =
    List.map
      (fun (x, required_ty) ->
        match
          match List.assoc_opt x d.m_members with
          | Some e -> Some e
          | None ->
              Option.map
                (subst_ty_exp (subst_of_list member_subst))
                (List.assoc_opt x decl.c_defaults)
        with
        | None ->
            Diag.wf_error ~code:"FG0206" ~loc
              "model of %s does not define member '%s'"
              (Pretty.constr_to_string (CModel (c, d.m_args)))
              x
        | Some e_member ->
            let expected = subst_ty_list member_subst required_ty in
            let got, elab_member, f_member = check env_members e_member in
            if not (Env.ty_eq ~loc:e_member.loc env_members expected got) then
              type_mismatch ~loc:e_member.loc ~expected ~got
                (Printf.sprintf "member '%s' of model of %s" x
                   (Pretty.constr_to_string (CModel (c, d.m_args))));
            (x, elab_member, f_member))
      decl.c_members
  in
  let members' = List.map (fun (_, _, f) -> f) member_results in
  (* Build the dictionary (Figure 7): refined dictionaries first, then
     the member values. *)
  let refine_dict_exps =
    List.map (fun fm -> Types.model_dict_exp ~loc env_eq fm) refine_entries
  in
  let dict_core = F.tuple ~loc (refine_dict_exps @ members') in
  let dict_rhs =
    if not parameterized then
      if uses_defaults then
        F.fix ~loc dict_var (Types.dict_type ~loc env_eq (c, d.m_args))
          dict_core
      else dict_core
    else begin
      (* Polymorphic dictionary function, fix-bound for self-reference. *)
      let slots = List.map fst ctx_plan.Types.p_slots in
      let inner_dict_ty = Types.dict_type ~loc env_eq (c, d.m_args) in
      let ctx_dict_params =
        List.map2
          (fun (dv, _) dty -> (dv, dty))
          ctx_plan.Types.p_dicts ctx_dict_tys
      in
      let poly_body =
        if Types.no_requirements ctx_plan then dict_core
        else F.abs ~loc ctx_dict_params dict_core
      in
      let poly = F.tyabs ~loc (d.m_params @ slots) poly_body in
      let poly_ty =
        F.TForall
          ( d.m_params @ slots,
            if Types.no_requirements ctx_plan then inner_dict_ty
            else F.TArrow (List.map snd ctx_dict_params, inner_dict_ty) )
      in
      F.fix ~loc dict_var poly_ty poly
    end
  in
  (* The body of the declaration is checked OUTSIDE the model's own
     parameter scope; ground models additionally publish their
     associated-type equations (parameterized ones are schematic and
     resolved by normalization instead).  A NAMED model is recorded but
     not activated — [using] activates it. *)
  (* Shadowed-model warning: an unnamed ground model whose argument
     types exactly repeat an in-scope (non-proxy) ground model of the
     same concept makes the earlier one unreachable for the rest of
     this scope.  Lexical shadowing is a feature (Section 3.2), so this
     is a warning, not an error — and the Global ablation already
     rejects the program outright. *)
  (match (env.Env.resolution, d.m_name, parameterized) with
  | Resolution.Lexical, None, false ->
      if
        List.exists
          (fun me ->
            me.Env.me_params = []
            && (not me.Env.me_proxy)
            && String.equal me.Env.me_concept c
            && List.length me.Env.me_args = List.length d.m_args
            && List.for_all2 ty_equal me.Env.me_args d.m_args)
          env.Env.models
      then
        Diag.warn
          !(env.Env.diag)
          ~code:"FG0701" ~loc Resolve
          "this model of %s shadows an earlier model of the same types"
          (Pretty.constr_to_string (CModel (c, d.m_args)))
  | _ -> ());
  let d =
    { d with m_members = List.map (fun (x, a, _) -> (x, a)) member_results }
  in
  Fmodel { loc; d; entry; dict = dict_rhs }

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* The names a failed declaration would have bound.  An unnamed model
   binds no name, so its concept stands in: later "no model of C<...>"
   errors are almost certainly consequences of this failure. *)
let decl_poison (e : exp) : string list =
  match e.desc with
  | Let (x, _, _) -> [ x ]
  | ConceptDecl (d, _) -> [ d.c_name ]
  | ModelDecl (d, _) -> (
      match d.m_name with Some m -> [ m ] | None -> [ d.m_concept ])
  | TypeAlias (t, _, _) -> [ t ]
  | _ -> []

let decl_body (e : exp) : exp option =
  match e.desc with
  | Let (_, _, b)
  | ConceptDecl (_, b)
  | ModelDecl (_, b)
  | Using (_, b)
  | TypeAlias (_, _, b) ->
      Some b
  | _ -> None

(** Is [d] a likely consequence of an earlier failure that poisoned one
    of [poisoned]?  Diagnostic messages quote user names as ['name'],
    failed resolutions read "no model of C<...>", and a concept's own
    errors read "concept C ..." (such as "concept C has no member 'x'",
    which a failed concept declaration that shadows an older [C]
    leaves behind); matching on those shapes suppresses the echo of an
    error already reported without a structured provenance channel
    through every raise site. *)
let is_cascade poisoned (d : Diag.diagnostic) =
  Sset.exists
    (fun n ->
      Strutil.contains ~needle:("'" ^ n ^ "'") d.Diag.message
      || Strutil.contains ~needle:("no model of " ^ n ^ "<") d.Diag.message
      || Strutil.contains ~needle:("concept " ^ n ^ " ") d.Diag.message)
    poisoned

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

(** Type check a closed FG program, returning its type, its elaborated
    form (implicit instantiations made explicit — the term the direct
    interpreter should run), and its System F translation. *)
let elaborate ?resolution ?escape_check (e : exp) : ty * exp * F.exp =
  check (Env.create ?resolution ?escape_check ()) e

(** Type check and translate a closed FG program. *)
let check_program ?resolution ?escape_check (e : exp) : ty * F.exp =
  let ty, _, f = elaborate ?resolution ?escape_check e in
  (ty, f)

(** Type check only. *)
let typecheck ?resolution ?escape_check (e : exp) : ty =
  fst (check_program ?resolution ?escape_check e)

(** Translate only. *)
let translate ?resolution ?escape_check (e : exp) : F.exp =
  snd (check_program ?resolution ?escape_check e)

let check_result ?resolution ?escape_check e =
  Diag.protect (fun () -> check_program ?resolution ?escape_check e)
