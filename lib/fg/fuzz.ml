(** Property-based fuzzing: generator, shrinker and oracle harness.

    Programs are well typed {e by construction}: the generator only
    combines forms it can type locally (members are instantiated at
    types whose models are in scope, generics are applied at types
    satisfying their whole where clause, recursion is structurally
    guarded), so any program one of the oracles rejects is a compiler
    bug, not a generator artifact.  Everything is derived from
    {!Fg_util.Prng} streams split per program index, so a run is a pure
    function of its configuration. *)

open Fg_util

type config = {
  seed : int;
  count : int;
  size : int;
  mutants : int;
  guided : bool;
  corpus_dir : string option;
}

let default_config =
  {
    seed = 0;
    count = 100;
    size = 30;
    mutants = 2;
    guided = false;
    corpus_dir = None;
  }

(* Where a candidate came from: the blind generator, or a mutation of a
   corpus entry.  Corpus mutants are not well typed by construction, so
   the oracles judge them by outcome class instead of by acceptance. *)
type origin = Gen | Corpus

let origin_name = function Gen -> "generated" | Corpus -> "corpus"

type program = {
  p_index : int;
  p_origin : origin;
  p_ast : Ast.exp;
  p_source : string;
}

(* ------------------------------------------------------------------ *)
(* A mutable handle over a pure PRNG stream, so generation code reads
   sequentially instead of threading states. *)

type rng = { mutable st : Prng.t }

let rng_of ~seed ~index = { st = Prng.split_nth (Prng.make seed) index }

let rint r n =
  let v, st = Prng.int r.st n in
  r.st <- st;
  v

let rchance r p =
  let v, st = Prng.chance r.st p in
  r.st <- st;
  v

let rchoose r xs =
  let v, st = Prng.choose r.st xs in
  r.st <- st;
  v

let rweighted r xs =
  let v, st = Prng.weighted r.st xs in
  r.st <- st;
  v

(* ------------------------------------------------------------------ *)
(* The generator's world: what has been declared so far. *)

(* Member shapes over the concept's type parameter [t] (and its
   associated type, for [MAssocVal]). *)
type mshape =
  | MVal  (* m : int *)
  | MSelf  (* m : t *)
  | MEndo  (* m : fn(t) -> t *)
  | MBin  (* m : fn(t, t) -> t *)
  | MObs  (* m : fn(t) -> int *)
  | MRel  (* m : fn(t, t) -> bool *)
  | MAssocVal  (* m : s, the concept's associated type *)

type cinfo = {
  ci_name : string;
  ci_ancestors : string list;  (* transitive refinement ancestors *)
  ci_assoc : string option;
  ci_assoc_val : Ast.ty;  (* every model assigns the assoc this type *)
  ci_members : (string * mshape) list;
  ci_defaulted : string list;  (* members with a concept-level default *)
}

type gform =
  | GSingle  (* tfun u where C̄<u> => fun (x : u) => ... : u *)
  | GSame  (* tfun a b where C<a>, a == b => fun (x:a, y:b) => ... : a *)
  | GNested  (* tfun a where C1<a> => tfun b where C2<b> => ... : a *)
  | GAssocPin  (* tfun w where C<w>, C<w>.s == int => fun (k:int) => ... *)

type ginfo = {
  g_name : string;
  g_form : gform;
  g_closure : string list;  (* direct where-clause concepts, first binder *)
  g_insts : Ast.ty list;  (* ground types usable for the first binder *)
  g_insts2 : Ast.ty list;  (* second binder (GNested only) *)
}

type ctx = {
  rng : rng;
  mutable concepts : cinfo list;  (* in declaration order *)
  mutable modeled : (string * Ast.ty) list;  (* (concept, ground arg) *)
  mutable generics : ginfo list;
  mutable conv : bool;  (* FzCv<int,bool> / FzCv<bool,int> in scope *)
  mutable fresh : int;
}

let tint = Ast.TBase Ast.TInt
let tbool = Ast.TBase Ast.TBool
let fn args ret = Ast.TArrow (args, ret)
let tlist t = Ast.TList t
let papp name args = Ast.app (Ast.prim name) args
let papp_t name tys args = Ast.app (Ast.tyapp (Ast.prim name) tys) args
let enil t = Ast.tyapp (Ast.prim "nil") [ t ]
let econs t hd tl = papp_t "cons" [ t ] [ hd; tl ]

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec replace_nth xs i x =
  match xs with
  | [] -> []
  | _ :: rest when i = 0 -> x :: rest
  | y :: rest -> y :: replace_nth rest (i - 1) x

let shape_ty shape ~self ~assoc_val =
  match shape with
  | MVal -> tint
  | MSelf -> self
  | MEndo -> fn [ self ] self
  | MBin -> fn [ self; self ] self
  | MObs -> fn [ self ] tint
  | MRel -> fn [ self; self ] tbool
  | MAssocVal -> assoc_val

let rec ground_value r (ty : Ast.ty) : Ast.exp =
  match ty with
  | Ast.TBase Ast.TInt -> Ast.int (rint r 100)
  | Ast.TBase Ast.TBool -> Ast.bool (rint r 2 = 0)
  | Ast.TBase Ast.TUnit -> Ast.unit ()
  | Ast.TList t ->
      if rchance r 0.5 then enil t else econs t (ground_value r t) (enil t)
  | Ast.TTuple ts -> Ast.tuple (List.map (ground_value r) ts)
  | Ast.TArrow (args, ret) ->
      let params = List.mapi (fun i a -> (Printf.sprintf "fzc%d" i, a)) args in
      Ast.abs params (ground_value r ret)
  | Ast.TVar _ | Ast.TAssoc _ | Ast.TForall _ ->
      invalid_arg "Fuzz.ground_value: not a ground type"

let concept_named ctx name = List.find (fun c -> c.ci_name = name) ctx.concepts

let modeled_at ctx name =
  List.filter_map (fun (c, s) -> if c = name then Some s else None) ctx.modeled

(* Every (owner, ground argument, member, instantiated member type)
   reachable right now. *)
let ground_members ctx =
  List.concat_map
    (fun (cname, s) ->
      let c = concept_named ctx cname in
      List.map
        (fun (m, sh) ->
          (cname, s, m, shape_ty sh ~self:s ~assoc_val:c.ci_assoc_val))
        c.ci_members)
    ctx.modeled

(* ------------------------------------------------------------------ *)
(* Expression generator.  [vars] are term variables in scope, [tvars]
   maps each type-variable binder to the concepts whose members may be
   projected at it (its where-clause closure plus refinement
   ancestors).  Always returns a well-typed expression of type [ty]. *)

let rec gen ctx ~vars ~tvars ~budget (ty : Ast.ty) : Ast.exp =
  let r = ctx.rng in
  let sub n = max 0 ((budget / n) - 1) in
  let g t b = gen ctx ~vars ~tvars ~budget:b t in
  let vars_of t = List.filter (fun (_, vt) -> Ast.ty_equal vt t) vars in
  let var_cands t =
    List.map (fun (x, _) -> (3, fun () -> Ast.var x)) (vars_of t)
  in
  let member_value_cands t =
    ground_members ctx
    |> List.filter (fun (_, _, _, mt) -> Ast.ty_equal mt t)
    |> take 4
    |> List.map (fun (c, s, m, _) -> (2, fun () -> Ast.member c [ s ] m))
  in
  (* Calls of members whose instantiated type is an arrow returning
     [t]: C<σ>.m(ē). *)
  let member_app_cands t =
    if budget < 4 then []
    else
      ground_members ctx
      |> List.filter_map (fun (c, s, m, mt) ->
             match mt with
             | Ast.TArrow (args, ret)
               when Ast.ty_equal ret t && List.length args <= 2 ->
                 Some
                   ( 2,
                     fun () ->
                       Ast.app
                         (Ast.member c [ s ] m)
                         (List.map (fun a -> g a (sub 2)) args) )
             | _ -> None)
      |> take 4
  in
  (* Calls of in-scope let-bound functions returning [t]. *)
  let applied_var_cands t =
    let generatable a =
      match a with
      | Ast.TVar u -> vars_of (Ast.TVar u) <> []
      | Ast.TAssoc _ | Ast.TForall _ -> false
      | _ -> true
    in
    if budget < 4 then []
    else
      vars
      |> List.filter_map (fun (x, vt) ->
             match vt with
             | Ast.TArrow (args, ret)
               when Ast.ty_equal ret t
                    && List.length args <= 3
                    && List.for_all generatable args ->
                 Some
                   ( 2,
                     fun () ->
                       Ast.app (Ast.var x)
                         (List.map (fun a -> g a (sub 2)) args) )
             | _ -> None)
      |> take 4
  in
  (* Instantiations of declared generics at a ground result type. *)
  let generic_call_cands t =
    if budget < 4 then []
    else
      ctx.generics
      |> List.filter_map (fun gi ->
             let at = List.exists (Ast.ty_equal t) gi.g_insts in
             match gi.g_form with
             | GSingle when at ->
                 Some
                   ( 2,
                     fun () ->
                       let arg = g t (sub 2) in
                       (* Implicit instantiation: let the checker infer
                          the type argument from the value argument. *)
                       if rchance r 0.35 then Ast.app (Ast.var gi.g_name) [ arg ]
                       else
                         Ast.app (Ast.tyapp (Ast.var gi.g_name) [ t ]) [ arg ]
                   )
             | GSame when at ->
                 Some
                   ( 1,
                     fun () ->
                       Ast.app
                         (Ast.tyapp (Ast.var gi.g_name) [ t; t ])
                         [ g t (sub 3); g t (sub 3) ] )
             | GNested when at && gi.g_insts2 <> [] ->
                 Some
                   ( 1,
                     fun () ->
                       let s2 = rchoose r gi.g_insts2 in
                       Ast.app
                         (Ast.tyapp
                            (Ast.tyapp (Ast.var gi.g_name) [ t ])
                            [ s2 ])
                         [ g t (sub 3); g s2 (sub 3) ] )
             | GAssocPin when Ast.ty_equal t tint && gi.g_insts <> [] ->
                 Some
                   ( 2,
                     fun () ->
                       let s = rchoose r gi.g_insts in
                       Ast.app
                         (Ast.tyapp (Ast.var gi.g_name) [ s ])
                         [ g tint (sub 2) ] )
             | _ -> None)
  in
  (* Projections available at an abstract type variable [u]: members of
     the binder's closure concepts whose types stay assoc-free. *)
  let tyvar_owner_members u =
    match List.assoc_opt u tvars with
    | None -> []
    | Some owners ->
        List.concat_map
          (fun cname ->
            let c = concept_named ctx cname in
            List.filter_map
              (fun (m, sh) ->
                match sh with MAssocVal -> None | _ -> Some (cname, m, sh))
              c.ci_members)
          owners
  in
  let if_cand t =
    if budget < 6 then []
    else [ (2, fun () -> Ast.if_ (g tbool (sub 3)) (g t (sub 3)) (g t (sub 3))) ]
  in
  let let_cand t =
    if budget < 6 then []
    else
      [
        ( 2,
          fun () ->
            let n = ctx.fresh in
            ctx.fresh <- n + 1;
            let x = Printf.sprintf "fzv%d" n in
            let bt = rchoose r [ tint; tbool; tlist tint ] in
            let bound = g bt (sub 3) in
            let body =
              gen ctx ~vars:((x, bt) :: vars) ~tvars ~budget:(sub 2) t
            in
            Ast.let_ x bound body );
      ]
  in
  let cands =
    match ty with
    | Ast.TBase Ast.TInt ->
        let base =
          ((4, fun () -> Ast.int (rint r 100)) :: var_cands ty)
          @ member_value_cands ty
        in
        let compound =
          if budget < 4 then []
          else
            [
              ( 6,
                fun () ->
                  let op =
                    rchoose r [ "iadd"; "isub"; "imult"; "imin"; "imax" ]
                  in
                  papp op [ g tint (sub 2); g tint (sub 2) ] );
              (1, fun () -> papp_t "length" [ tint ] [ g (tlist tint) (sub 2) ]);
              ( 1,
                fun () ->
                  Ast.nth (Ast.tuple [ g tint (sub 3); g tbool (sub 3) ]) 0 );
              ( 1,
                fun () ->
                  (* car is only ever applied to a cons cell. *)
                  papp_t "car" [ tint ]
                    [ econs tint (g tint (sub 3)) (g (tlist tint) (sub 3)) ]
              );
            ]
            @ (if ctx.conv then
                 [
                   ( 1,
                     fun () ->
                       Ast.app
                         (Ast.member "FzCv" [ tbool; tint ] "fzcv")
                         [ g tbool (sub 2) ] );
                 ]
               else [])
            @ List.concat_map
                (fun (u, _) ->
                  match vars_of (Ast.TVar u) with
                  | [] -> []
                  | (x, _) :: _ ->
                      tyvar_owner_members u
                      |> List.filter_map (fun (c, m, sh) ->
                             match sh with
                             | MVal ->
                                 Some
                                   ( 1,
                                     fun () -> Ast.member c [ Ast.TVar u ] m )
                             | MObs ->
                                 Some
                                   ( 2,
                                     fun () ->
                                       Ast.app
                                         (Ast.member c [ Ast.TVar u ] m)
                                         [ Ast.var x ] )
                             | _ -> None))
                tvars
            @ if_cand ty @ let_cand ty
        in
        base @ compound @ member_app_cands ty @ applied_var_cands ty
        @ generic_call_cands ty
    | Ast.TBase Ast.TBool ->
        let base =
          ((3, fun () -> Ast.bool (rint r 2 = 0)) :: var_cands ty)
          @ member_value_cands ty
        in
        let compound =
          if budget < 4 then []
          else
            [
              ( 4,
                fun () ->
                  let op =
                    rchoose r [ "ilt"; "ile"; "igt"; "ige"; "ieq"; "ineq" ]
                  in
                  papp op [ g tint (sub 2); g tint (sub 2) ] );
              ( 2,
                fun () ->
                  let op = rchoose r [ "band"; "bor"; "beq" ] in
                  papp op [ g tbool (sub 2); g tbool (sub 2) ] );
              (1, fun () -> papp "bnot" [ g tbool (sub 2) ]);
              (1, fun () -> papp_t "null" [ tint ] [ g (tlist tint) (sub 2) ]);
            ]
            @ (if ctx.conv then
                 [
                   ( 1,
                     fun () ->
                       Ast.app
                         (Ast.member "FzCv" [ tint; tbool ] "fzcv")
                         [ g tint (sub 2) ] );
                 ]
               else [])
            @ List.concat_map
                (fun (u, _) ->
                  match vars_of (Ast.TVar u) with
                  | [] -> []
                  | (x, _) :: _ ->
                      tyvar_owner_members u
                      |> List.filter_map (fun (c, m, sh) ->
                             match sh with
                             | MRel ->
                                 Some
                                   ( 1,
                                     fun () ->
                                       Ast.app
                                         (Ast.member c [ Ast.TVar u ] m)
                                         [ Ast.var x; Ast.var x ] )
                             | _ -> None))
                tvars
            @ if_cand ty @ let_cand ty
        in
        base @ compound @ member_app_cands ty @ applied_var_cands ty
        @ generic_call_cands ty
    | Ast.TBase Ast.TUnit -> (2, fun () -> Ast.unit ()) :: var_cands ty
    | Ast.TList elt ->
        let base =
          ((2, fun () -> enil elt) :: var_cands ty) @ member_value_cands ty
        in
        let compound =
          if budget < 4 then []
          else
            [
              (4, fun () -> econs elt (g elt (sub 3)) (g ty (sub 2)));
              (2, fun () -> papp_t "append" [ elt ] [ g ty (sub 2); g ty (sub 2) ]);
              ( 1,
                fun () ->
                  (* cdr is only ever applied to a cons cell. *)
                  papp_t "cdr" [ elt ]
                    [ econs elt (g elt (sub 3)) (g ty (sub 3)) ] );
            ]
            @ if_cand ty @ let_cand ty
        in
        base @ compound @ member_app_cands ty @ applied_var_cands ty
        @ generic_call_cands ty
    | Ast.TTuple ts ->
        let n = max 1 (List.length ts) in
        ((3, fun () -> Ast.tuple (List.map (fun t -> g t (sub n)) ts))
        :: var_cands ty)
        @ if_cand ty
    | Ast.TArrow (args, ret) ->
        let prim_consts =
          if Ast.ty_equal ty (fn [ tint; tint ] tint) then
            [ (2, fun () -> Ast.prim (rchoose r [ "iadd"; "imult"; "imin" ])) ]
          else if Ast.ty_equal ty (fn [ tint ] tint) then
            [ (1, fun () -> Ast.prim "ineg") ]
          else if Ast.ty_equal ty (fn [ tint; tint ] tbool) then
            [ (1, fun () -> Ast.prim (rchoose r [ "ieq"; "ile" ])) ]
          else []
        in
        let eta =
          ( 3,
            fun () ->
              let params =
                List.map
                  (fun a ->
                    let n = ctx.fresh in
                    ctx.fresh <- n + 1;
                    (Printf.sprintf "fzx%d" n, a))
                  args
              in
              let body =
                gen ctx ~vars:(params @ vars) ~tvars ~budget:(sub 1) ret
              in
              Ast.abs params body )
        in
        (eta :: var_cands ty) @ member_value_cands ty @ prim_consts
    | Ast.TVar u ->
        let base =
          match vars_of ty with
          | [] -> invalid_arg ("Fuzz.gen: no variable of abstract type " ^ u)
          | vs -> List.map (fun (x, _) -> (4, fun () -> Ast.var x)) vs
        in
        let proj =
          if budget < 4 then []
          else
            tyvar_owner_members u
            |> List.filter_map (fun (c, m, sh) ->
                   match sh with
                   | MSelf -> Some (1, fun () -> Ast.member c [ ty ] m)
                   | MEndo ->
                       Some
                         ( 3,
                           fun () ->
                             Ast.app (Ast.member c [ ty ] m) [ g ty (sub 2) ]
                         )
                   | MBin ->
                       Some
                         ( 2,
                           fun () ->
                             Ast.app
                               (Ast.member c [ ty ] m)
                               [ g ty (sub 3); g ty (sub 3) ] )
                   | _ -> None)
        in
        let gcalls =
          if budget < 4 then []
          else
            match List.assoc_opt u tvars with
            | None -> []
            | Some owners ->
                ctx.generics
                |> List.filter_map (fun gi ->
                       match gi.g_form with
                       | GSingle
                         when List.for_all
                                (fun c -> List.mem c owners)
                                gi.g_closure ->
                           (* Generic calls generic at the abstract
                              binder: the callee's where clause is
                              entailed by ours. *)
                           Some
                             ( 2,
                               fun () ->
                                 Ast.app
                                   (Ast.tyapp (Ast.var gi.g_name) [ ty ])
                                   [ g ty (sub 2) ] )
                       | _ -> None)
        in
        base @ proj @ gcalls @ if_cand ty @ let_cand ty
    | Ast.TAssoc _ | Ast.TForall _ ->
        invalid_arg "Fuzz.gen: unsupported target type"
  in
  (rweighted r cands) ()

(* ------------------------------------------------------------------ *)
(* Declaration generation. *)

let concept_letter i = String.make 1 (Char.chr (Char.code 'A' + i))

let default_body = function
  | MEndo -> Some (Ast.abs [ ("x", Ast.TVar "t") ] (Ast.var "x"))
  | MBin ->
      Some (Ast.abs [ ("x", Ast.TVar "t"); ("y", Ast.TVar "t") ] (Ast.var "x"))
  | MVal -> Some (Ast.int 1)
  | _ -> None

let gen_concept ctx i =
  let r = ctx.rng in
  let letter = concept_letter i in
  let name = "Fz" ^ letter in
  let refines =
    ctx.concepts
    |> List.filter (fun c -> String.length c.ci_name = 3 (* FzX only *))
    |> List.filter (fun _ -> rchance r 0.45)
    |> take 2
    |> List.map (fun c -> c.ci_name)
  in
  let ancestors =
    List.sort_uniq compare
      (refines
      @ List.concat_map (fun a -> (concept_named ctx a).ci_ancestors) refines)
  in
  let assoc =
    if rchance r 0.35 then Some ("fzs" ^ String.lowercase_ascii letter)
    else None
  in
  let assoc_val =
    match assoc with
    | None -> tint
    | Some _ -> rchoose r [ tint; tint; tbool; tlist tint ]
  in
  let pin =
    let pinnable =
      List.filter (fun a -> (concept_named ctx a).ci_assoc <> None) ancestors
    in
    if pinnable <> [] && rchance r 0.4 then Some (rchoose r pinnable) else None
  in
  let nmembers = 1 + rint r 3 in
  let members =
    List.init nmembers (fun k ->
        let sh =
          rweighted r
            [ (3, MEndo); (2, MBin); (2, MVal); (2, MSelf); (1, MObs); (1, MRel) ]
        in
        (Printf.sprintf "fz%s_m%d" (String.lowercase_ascii letter) k, sh))
    @ (match assoc with
      | Some _ -> [ ("fz" ^ String.lowercase_ascii letter ^ "_a", MAssocVal) ]
      | None -> [])
  in
  let defaults =
    List.filter_map
      (fun (m, sh) ->
        if rchance r 0.3 then
          Option.map (fun b -> (m, b)) (default_body sh)
        else None)
      members
  in
  let assoc_as_ty = match assoc with Some s -> Ast.TVar s | None -> Ast.TVar "t" in
  let decl : Ast.concept_decl =
    {
      c_name = name;
      c_params = [ "t" ];
      c_assoc = Option.to_list assoc;
      c_refines = List.map (fun a -> (a, [ Ast.TVar "t" ])) refines;
      c_requires = [];
      c_members =
        List.map
          (fun (m, sh) ->
            (m, shape_ty sh ~self:(Ast.TVar "t") ~assoc_val:assoc_as_ty))
          members;
      c_defaults = defaults;
      c_same =
        (match pin with
        | None -> []
        | Some anc ->
            let a = concept_named ctx anc in
            [
              ( Ast.TAssoc (anc, [ Ast.TVar "t" ], Option.get a.ci_assoc),
                a.ci_assoc_val );
            ]);
      c_loc = Loc.dummy;
    }
  in
  ctx.concepts <-
    ctx.concepts
    @ [
        {
          ci_name = name;
          ci_ancestors = ancestors;
          ci_assoc = assoc;
          ci_assoc_val = assoc_val;
          ci_members = members;
          ci_defaulted = List.map fst defaults;
        };
      ];
  fun body -> Ast.concept_decl decl body

let model_member_body ctx (sh : mshape) (s : Ast.ty) (av : Ast.ty) : Ast.exp =
  let r = ctx.rng in
  match (sh, s) with
  | MVal, _ -> Ast.int (rint r 50)
  | MSelf, _ -> ground_value r s
  | MAssocVal, _ -> ground_value r av
  | MEndo, Ast.TBase Ast.TInt ->
      rchoose r
        [
          Ast.prim "ineg";
          Ast.abs [ ("x", tint) ] (Ast.var "x");
          Ast.abs [ ("x", tint) ] (papp "iadd" [ Ast.var "x"; Ast.int (rint r 9) ]);
        ]
  | MEndo, _ -> Ast.abs [ ("x", s) ] (Ast.var "x")
  | MBin, Ast.TBase Ast.TInt ->
      rchoose r
        [
          Ast.prim "iadd";
          Ast.prim "imult";
          Ast.prim "imin";
          Ast.abs [ ("x", tint); ("y", tint) ] (Ast.var "y");
        ]
  | MBin, Ast.TBase Ast.TBool ->
      rchoose r [ Ast.prim "band"; Ast.prim "bor" ]
  | MBin, _ -> Ast.abs [ ("x", s); ("y", s) ] (Ast.var "x")
  | MObs, Ast.TBase Ast.TInt ->
      Ast.abs [ ("x", tint) ] (papp "iadd" [ Ast.var "x"; Ast.int (rint r 9) ])
  | MObs, Ast.TBase Ast.TBool ->
      Ast.abs [ ("x", tbool) ] (Ast.if_ (Ast.var "x") (Ast.int 1) (Ast.int 0))
  | MObs, Ast.TList t ->
      Ast.abs [ ("x", s) ] (papp_t "length" [ t ] [ Ast.var "x" ])
  | MObs, _ -> Ast.abs [ ("x", s) ] (Ast.int (rint r 9))
  | MRel, Ast.TBase Ast.TInt -> rchoose r [ Ast.prim "ieq"; Ast.prim "ile" ]
  | MRel, Ast.TBase Ast.TBool -> Ast.prim "beq"
  | MRel, Ast.TList t ->
      Ast.abs
        [ ("x", s); ("y", s) ]
        (papp "ieq"
           [
             papp_t "length" [ t ] [ Ast.var "x" ];
             papp_t "length" [ t ] [ Ast.var "y" ];
           ])
  | MRel, _ -> Ast.abs [ ("x", s); ("y", s) ] (Ast.bool true)

let model_decl_for ctx ?name ~skip_defaults (c : cinfo) (s : Ast.ty) :
    Ast.model_decl =
  let r = ctx.rng in
  let members =
    List.filter_map
      (fun (m, sh) ->
        if skip_defaults && List.mem m c.ci_defaulted && rchance r 0.5 then None
        else Some (m, model_member_body ctx sh s c.ci_assoc_val))
      c.ci_members
  in
  {
    m_name = name;
    m_params = [];
    m_constrs = [];
    m_concept = c.ci_name;
    m_args = [ s ];
    m_assoc =
      (match c.ci_assoc with
      | Some sn -> [ (sn, c.ci_assoc_val) ]
      | None -> []);
    m_members = members;
    m_loc = Loc.dummy;
  }

(* The FzEq skeleton: a parameterized model lifting equality from [t]
   to [list t], registered at int, list int and list (list int). *)
let fzeq_wrappers ctx =
  let tv = Ast.TVar "t" in
  let decl : Ast.concept_decl =
    {
      c_name = "FzEq";
      c_params = [ "t" ];
      c_assoc = [];
      c_refines = [];
      c_requires = [];
      c_members = [ ("fzeql", fn [ tv; tv ] tbool) ];
      c_defaults = [];
      c_same = [];
      c_loc = Loc.dummy;
    }
  in
  let int_model : Ast.model_decl =
    {
      m_name = None;
      m_params = [];
      m_constrs = [];
      m_concept = "FzEq";
      m_args = [ tint ];
      m_assoc = [];
      m_members = [ ("fzeql", Ast.prim "ieq") ];
      m_loc = Loc.dummy;
    }
  in
  let eq_body =
    let car x = papp_t "car" [ tv ] [ Ast.var x ] in
    let cdr x = papp_t "cdr" [ tv ] [ Ast.var x ] in
    let null x = papp_t "null" [ tv ] [ Ast.var x ] in
    Ast.fix "fzgo"
      (fn [ tlist tv; tlist tv ] tbool)
      (Ast.abs
         [ ("a", tlist tv); ("b", tlist tv) ]
         (Ast.if_ (null "a") (null "b")
            (Ast.if_ (null "b") (Ast.bool false)
               (papp "band"
                  [
                    Ast.app (Ast.member "FzEq" [ tv ] "fzeql") [ car "a"; car "b" ];
                    Ast.app (Ast.var "fzgo") [ cdr "a"; cdr "b" ];
                  ]))))
  in
  let list_model : Ast.model_decl =
    {
      m_name = None;
      m_params = [ "t" ];
      m_constrs = [ Ast.CModel ("FzEq", [ tv ]) ];
      m_concept = "FzEq";
      m_args = [ tlist tv ];
      m_assoc = [];
      m_members = [ ("fzeql", eq_body) ];
      m_loc = Loc.dummy;
    }
  in
  ctx.concepts <-
    ctx.concepts
    @ [
        {
          ci_name = "FzEq";
          ci_ancestors = [];
          ci_assoc = None;
          ci_assoc_val = tint;
          ci_members = [ ("fzeql", MRel) ];
          ci_defaulted = [];
        };
      ];
  ctx.modeled <-
    ctx.modeled
    @ [
        ("FzEq", tint); ("FzEq", tlist tint); ("FzEq", tlist (tlist tint));
      ];
  [
    (fun body -> Ast.concept_decl decl body);
    (fun body -> Ast.model_decl int_model body);
    (fun body -> Ast.model_decl list_model body);
  ]

(* The FzCv skeleton: a two-parameter concept with converting models in
   both directions. *)
let fzcv_wrappers ctx =
  let decl : Ast.concept_decl =
    {
      c_name = "FzCv";
      c_params = [ "a"; "b" ];
      c_assoc = [];
      c_refines = [];
      c_requires = [];
      c_members = [ ("fzcv", fn [ Ast.TVar "a" ] (Ast.TVar "b")) ];
      c_defaults = [];
      c_same = [];
      c_loc = Loc.dummy;
    }
  in
  let m args body : Ast.model_decl =
    {
      m_name = None;
      m_params = [];
      m_constrs = [];
      m_concept = "FzCv";
      m_args = args;
      m_assoc = [];
      m_members = [ ("fzcv", body) ];
      m_loc = Loc.dummy;
    }
  in
  let int_to_bool =
    Ast.abs [ ("n", tint) ] (papp "igt" [ Ast.var "n"; Ast.int 0 ])
  in
  let bool_to_int =
    Ast.abs [ ("p", tbool) ] (Ast.if_ (Ast.var "p") (Ast.int 1) (Ast.int 0))
  in
  ctx.conv <- true;
  [
    (fun body -> Ast.concept_decl decl body);
    (fun body -> Ast.model_decl (m [ tint; tbool ] int_to_bool) body);
    (fun body -> Ast.model_decl (m [ tbool; tint ] bool_to_int) body);
  ]

(* fzsum: a structurally terminating fix over lists. *)
let fzsum_wrapper () =
  let body =
    Ast.fix "fzgo"
      (fn [ tlist tint ] tint)
      (Ast.abs
         [ ("xs", tlist tint) ]
         (Ast.if_
            (papp_t "null" [ tint ] [ Ast.var "xs" ])
            (Ast.int 0)
            (papp "iadd"
               [
                 papp_t "car" [ tint ] [ Ast.var "xs" ];
                 Ast.app (Ast.var "fzgo") [ papp_t "cdr" [ tint ] [ Ast.var "xs" ] ];
               ])))
  in
  fun b -> Ast.let_ "fzsum" body b

let owners_of ctx closure =
  List.sort_uniq compare
    (closure
    @ List.concat_map (fun c -> (concept_named ctx c).ci_ancestors) closure)

let gen_generic ctx ~gvars ~size j =
  let r = ctx.rng in
  let name = Printf.sprintf "fzg%d" j in
  let with_models =
    List.filter (fun c -> modeled_at ctx c.ci_name <> []) ctx.concepts
  in
  if with_models = [] then None
  else
    let form = rweighted r [ (4, GSingle); (2, GSame); (2, GNested) ] in
    match form with
    | GSingle ->
        let c1 = rchoose r with_models in
        let closure =
          if rchance r 0.3 && List.length with_models > 1 then
            let c2 = rchoose r with_models in
            if c2.ci_name = c1.ci_name then [ c1.ci_name ]
            else [ c1.ci_name; c2.ci_name ]
          else [ c1.ci_name ]
        in
        let insts =
          modeled_at ctx (List.hd closure)
          |> List.filter (fun s ->
                 List.for_all
                   (fun c -> List.exists (Ast.ty_equal s) (modeled_at ctx c))
                   closure)
        in
        let closure, insts =
          if insts = [] then begin
            Telemetry.record_fuzz_discarded ();
            ([ c1.ci_name ], modeled_at ctx c1.ci_name)
          end
          else (closure, insts)
        in
        let owners = owners_of ctx closure in
        let body =
          gen ctx
            ~vars:(("x", Ast.TVar "u") :: gvars)
            ~tvars:[ ("u", owners) ]
            ~budget:(size / 2) (Ast.TVar "u")
        in
        let e =
          Ast.tyabs [ "u" ]
            (List.map (fun c -> Ast.CModel (c, [ Ast.TVar "u" ])) closure)
            (Ast.abs [ ("x", Ast.TVar "u") ] body)
        in
        Some
          ( (fun b -> Ast.let_ name e b),
            { g_name = name; g_form = GSingle; g_closure = closure;
              g_insts = insts; g_insts2 = [] } )
    | GSame ->
        let c = rchoose r with_models in
        let bin =
          List.find_opt (fun (_, sh) -> sh = MBin) c.ci_members
        in
        let body =
          match bin with
          | Some (m, _) ->
              Ast.app
                (Ast.member c.ci_name [ Ast.TVar "a" ] m)
                [ Ast.var "x"; Ast.var "y" ]
          | None -> Ast.var "x"
        in
        let e =
          Ast.tyabs [ "a"; "b" ]
            [
              Ast.CModel (c.ci_name, [ Ast.TVar "a" ]);
              Ast.CSame (Ast.TVar "a", Ast.TVar "b");
            ]
            (Ast.abs [ ("x", Ast.TVar "a"); ("y", Ast.TVar "b") ] body)
        in
        Some
          ( (fun b -> Ast.let_ name e b),
            { g_name = name; g_form = GSame; g_closure = [ c.ci_name ];
              g_insts = modeled_at ctx c.ci_name; g_insts2 = [] } )
    | GNested ->
        let c1 = rchoose r with_models in
        let c2 = rchoose r with_models in
        let body =
          gen ctx
            ~vars:(("x", Ast.TVar "a") :: ("y", Ast.TVar "b") :: gvars)
            ~tvars:
              [ ("a", owners_of ctx [ c1.ci_name ]);
                ("b", owners_of ctx [ c2.ci_name ]) ]
            ~budget:(size / 2) (Ast.TVar "a")
        in
        let e =
          Ast.tyabs [ "a" ]
            [ Ast.CModel (c1.ci_name, [ Ast.TVar "a" ]) ]
            (Ast.tyabs [ "b" ]
               [ Ast.CModel (c2.ci_name, [ Ast.TVar "b" ]) ]
               (Ast.abs [ ("x", Ast.TVar "a"); ("y", Ast.TVar "b") ] body))
        in
        Some
          ( (fun b -> Ast.let_ name e b),
            { g_name = name; g_form = GNested; g_closure = [ c1.ci_name ];
              g_insts = modeled_at ctx c1.ci_name;
              g_insts2 = modeled_at ctx c2.ci_name } )
    | GAssocPin -> None

(* The assoc-pin generic: usable at any model whose associated type is
   pinned (by assignment) to int. *)
let gen_assoc_pin ctx =
  let cands =
    List.filter
      (fun c ->
        c.ci_assoc <> None
        && Ast.ty_equal c.ci_assoc_val tint
        && List.exists (fun (_, sh) -> sh = MAssocVal) c.ci_members
        && modeled_at ctx c.ci_name <> [])
      ctx.concepts
  in
  match cands with
  | [] ->
      Telemetry.record_fuzz_discarded ();
      None
  | c :: _ ->
      let am, _ = List.find (fun (_, sh) -> sh = MAssocVal) c.ci_members in
      let w = Ast.TVar "w" in
      let e =
        Ast.tyabs [ "w" ]
          [
            Ast.CModel (c.ci_name, [ w ]);
            Ast.CSame (Ast.TAssoc (c.ci_name, [ w ], Option.get c.ci_assoc), tint);
          ]
          (Ast.abs
             [ ("k", tint) ]
             (papp "iadd" [ Ast.member c.ci_name [ w ] am; Ast.var "k" ]))
      in
      Some
        ( (fun b -> Ast.let_ "fzp" e b),
          { g_name = "fzp"; g_form = GAssocPin; g_closure = [ c.ci_name ];
            g_insts = modeled_at ctx c.ci_name; g_insts2 = [] } )

let generate cfg ~index =
  let rng = rng_of ~seed:cfg.seed ~index in
  let ctx =
    { rng; concepts = []; modeled = []; generics = []; conv = false; fresh = 0 }
  in
  let r = rng in
  let wrappers = ref [] in
  let push w = wrappers := !wrappers @ [ w ] in
  let gvars = ref [] in
  (* Concepts. *)
  let nconcepts = 1 + rint r 4 in
  for i = 0 to nconcepts - 1 do
    push (gen_concept ctx i)
  done;
  (* Ground models, in concept order so refinement requirements are
     always in scope: int everywhere, bool / list int sometimes. *)
  let own = List.filter (fun c -> c.ci_name <> "FzEq") ctx.concepts in
  List.iter
    (fun c ->
      push (fun b -> Ast.model_decl (model_decl_for ctx ~skip_defaults:true c tint) b);
      ctx.modeled <- ctx.modeled @ [ (c.ci_name, tint) ])
    own;
  List.iter
    (fun (s, p) ->
      List.iter
        (fun c ->
          if
            rchance r p
            && List.for_all
                 (fun a -> List.exists (Ast.ty_equal s) (modeled_at ctx a))
                 c.ci_ancestors
          then begin
            push (fun b ->
                Ast.model_decl (model_decl_for ctx ~skip_defaults:true c s) b);
            ctx.modeled <- ctx.modeled @ [ (c.ci_name, s) ]
          end)
        own)
    [ (tbool, 0.3); (tlist tint, 0.15) ];
  (* A named model activated by [using]. *)
  if rchance r 0.2 then begin
    let cands =
      List.filter
        (fun c ->
          c.ci_ancestors = []
          && not (List.exists (Ast.ty_equal tbool) (modeled_at ctx c.ci_name)))
        own
    in
    match cands with
    | [] -> Telemetry.record_fuzz_discarded ()
    | _ ->
        let c = rchoose r cands in
        let decl = model_decl_for ctx ~name:"fznm" ~skip_defaults:false c tbool in
        push (fun b -> Ast.model_decl decl (Ast.using "fznm" b));
        ctx.modeled <- ctx.modeled @ [ (c.ci_name, tbool) ]
  end;
  (* Canned skeletons. *)
  if rchance r 0.3 then List.iter push (fzeq_wrappers ctx);
  if rchance r 0.25 then List.iter push (fzcv_wrappers ctx);
  if rchance r 0.3 then begin
    push (fzsum_wrapper ());
    gvars := ("fzsum", fn [ tlist tint ] tint) :: !gvars
  end;
  if rchance r 0.3 then begin
    push (fun b ->
        Ast.type_alias "fzal" tint
          (Ast.let_ "fzha"
             (Ast.abs [ ("x", Ast.TVar "fzal") ]
                (papp "iadd" [ Ast.var "x"; Ast.int 7 ]))
             b));
    gvars := ("fzha", fn [ tint ] tint) :: !gvars
  end;
  (* Ground helper bindings. *)
  let nhelpers = rint r 3 in
  for i = 0 to nhelpers - 1 do
    let t =
      rweighted r
        [ (3, tint); (2, tbool); (2, tlist tint); (1, fn [ tint ] tint) ]
    in
    let e = gen ctx ~vars:!gvars ~tvars:[] ~budget:(cfg.size / 3) t in
    push (fun b -> Ast.let_ (Printf.sprintf "fzh%d" i) e b);
    gvars := (Printf.sprintf "fzh%d" i, t) :: !gvars
  done;
  (* Generics. *)
  if rchance r 0.5 then begin
    match gen_assoc_pin ctx with
    | None -> ()
    | Some (w, gi) ->
        push w;
        ctx.generics <- ctx.generics @ [ gi ]
  end;
  let ngenerics = 1 + if rchance r 0.5 then 1 else 0 in
  for j = 0 to ngenerics - 1 do
    match gen_generic ctx ~gvars:!gvars ~size:cfg.size j with
    | None -> Telemetry.record_fuzz_discarded ()
    | Some (w, gi) ->
        push w;
        ctx.generics <- ctx.generics @ [ gi ]
  done;
  (* A shadowing redeclaration: same concept, same argument, same assoc
     assignment, fresh member bodies.  Resolution must pick it. *)
  if rchance r 0.15 then begin
    match List.filter (fun c -> c.ci_name <> "FzEq" && c.ci_name <> "FzCv") own with
    | [] -> ()
    | cs ->
        let c = rchoose r cs in
        push (fun b ->
            Ast.model_decl (model_decl_for ctx ~skip_defaults:false c tint) b)
  end;
  (* The residual body. *)
  let final_ty =
    rweighted r
      [ (4, tint); (2, tbool); (1, Ast.TTuple [ tint; tbool ]); (1, tlist tint) ]
  in
  let body = gen ctx ~vars:!gvars ~tvars:[] ~budget:cfg.size final_ty in
  let ast0 = List.fold_right (fun w acc -> w acc) !wrappers body in
  Telemetry.record_fuzz_generated ();
  let source = Pretty.exp_to_string ast0 in
  (* Normalize through the parser so [p_ast] is in the parser's image;
     if the printer emits something unparseable the round-trip oracle
     reports it on the raw AST. *)
  let ast = try Parser.exp_of_string source with _ -> ast0 in
  { p_index = index; p_origin = Gen; p_ast = ast; p_source = source }

(* ------------------------------------------------------------------ *)
(* Shrinker. *)

let one_step (e : Ast.exp) : Ast.exp list =
  let rec steps e =
    let mk d = { e with Ast.desc = d } in
    let kids =
      match e.Ast.desc with
      | Ast.ConceptDecl (_, b)
      | Ast.ModelDecl (_, b)
      | Ast.Using (_, b)
      | Ast.TypeAlias (_, _, b) ->
          [ b ]
      | Ast.Let (_, e1, b) -> [ b; e1 ]
      | Ast.App (f, args) -> f :: args
      | Ast.TyApp (f, _) -> [ f ]
      | Ast.Abs (_, b) | Ast.TyAbs (_, _, b) | Ast.Fix (_, _, b) -> [ b ]
      | Ast.Tuple es -> es
      | Ast.Nth (e1, _) -> [ e1 ]
      | Ast.If (c, a, b) -> [ a; b; c ]
      | Ast.Var _ | Ast.Lit _ | Ast.Prim _ | Ast.Member _ -> []
    in
    let here = kids @ [ Ast.int 0; Ast.bool false ] in
    let deeper =
      match e.Ast.desc with
      | Ast.Var _ | Ast.Lit _ | Ast.Prim _ | Ast.Member _ -> []
      | Ast.App (f, args) ->
          List.map (fun f' -> mk (Ast.App (f', args))) (steps f)
          @ List.concat
              (List.mapi
                 (fun i a ->
                   List.map
                     (fun a' -> mk (Ast.App (f, replace_nth args i a')))
                     (steps a))
                 args)
      | Ast.TyApp (f, tys) ->
          List.map (fun f' -> mk (Ast.TyApp (f', tys))) (steps f)
      | Ast.Abs (ps, b) -> List.map (fun b' -> mk (Ast.Abs (ps, b'))) (steps b)
      | Ast.TyAbs (ts, cs, b) ->
          List.map (fun b' -> mk (Ast.TyAbs (ts, cs, b'))) (steps b)
      | Ast.Let (x, e1, b) ->
          List.map (fun e1' -> mk (Ast.Let (x, e1', b))) (steps e1)
          @ List.map (fun b' -> mk (Ast.Let (x, e1, b'))) (steps b)
      | Ast.Tuple es ->
          List.concat
            (List.mapi
               (fun i a ->
                 List.map
                   (fun a' -> mk (Ast.Tuple (replace_nth es i a')))
                   (steps a))
               es)
      | Ast.Nth (e1, k) -> List.map (fun e1' -> mk (Ast.Nth (e1', k))) (steps e1)
      | Ast.Fix (x, t, b) ->
          List.map (fun b' -> mk (Ast.Fix (x, t, b'))) (steps b)
      | Ast.If (c, a, b) ->
          List.map (fun c' -> mk (Ast.If (c', a, b))) (steps c)
          @ List.map (fun a' -> mk (Ast.If (c, a', b))) (steps a)
          @ List.map (fun b' -> mk (Ast.If (c, a, b'))) (steps b)
      | Ast.ConceptDecl (d, b) ->
          List.map (fun b' -> mk (Ast.ConceptDecl (d, b'))) (steps b)
          @ List.concat
              (List.mapi
                 (fun i (m, me) ->
                   List.map
                     (fun me' ->
                       mk
                         (Ast.ConceptDecl
                            ( { d with
                                Ast.c_defaults =
                                  replace_nth d.Ast.c_defaults i (m, me') },
                              b )))
                     (steps me))
                 d.Ast.c_defaults)
      | Ast.ModelDecl (d, b) ->
          List.map (fun b' -> mk (Ast.ModelDecl (d, b'))) (steps b)
          @ List.concat
              (List.mapi
                 (fun i (m, me) ->
                   List.map
                     (fun me' ->
                       mk
                         (Ast.ModelDecl
                            ( { d with
                                Ast.m_members =
                                  replace_nth d.Ast.m_members i (m, me') },
                              b )))
                     (steps me))
                 d.Ast.m_members)
      | Ast.Using (n, b) -> List.map (fun b' -> mk (Ast.Using (n, b'))) (steps b)
      | Ast.TypeAlias (n, t, b) ->
          List.map (fun b' -> mk (Ast.TypeAlias (n, t, b'))) (steps b)
    in
    here @ deeper
  in
  steps e

let shrink ?(fuel = 1500) ~still_fails e0 =
  let evals = ref fuel in
  let rec go cur =
    if !evals <= 0 then cur
    else
      let sz = Ast.exp_size cur in
      let cands =
        one_step cur
        |> List.filter (fun c -> Ast.exp_size c < sz)
        |> List.stable_sort (fun a b ->
               compare (Ast.exp_size a) (Ast.exp_size b))
      in
      let rec try_ = function
        | [] -> cur
        | c :: rest ->
            if !evals <= 0 then cur
            else begin
              decr evals;
              if (try still_fails c with _ -> false) then begin
                Telemetry.record_fuzz_shrunk ();
                go c
              end
              else try_ rest
            end
      in
      try_ cands
  in
  go e0

(* Greedy line deletion, for failures that only exist as text (lexer
   mutants that no AST represents). *)
let shrink_text ~still_fails src =
  let join lines = String.concat "\n" lines in
  let rec go lines rounds =
    if rounds <= 0 then lines
    else
      let n = List.length lines in
      let rec try_ i =
        if i >= n || n <= 1 then None
        else
          let cand = List.filteri (fun j _ -> j <> i) lines in
          if try still_fails (join cand) with _ -> false then Some cand
          else try_ (i + 1)
      in
      match try_ 0 with
      | Some cand ->
          Telemetry.record_fuzz_shrunk ();
          go cand (rounds - 1)
      | None -> lines
  in
  join (go (String.split_on_char '\n' src) 60)

(* ------------------------------------------------------------------ *)
(* Oracles. *)

type oracle = Agreement | Roundtrip | Recovery

let oracle_name = function
  | Agreement -> "agreement"
  | Roundtrip -> "roundtrip"
  | Recovery -> "recovery"

type failure = {
  f_index : int;
  f_origin : origin;
  f_oracle : oracle;
  f_message : string;
  f_source : string;
  f_shrunk : string;
  f_shrunk_nodes : int;
}

type report = {
  r_config : config;
  r_generated : int;
  r_mutants_run : int;
  r_failures : failure list;
  r_coverage : Coverage.map;  (** [] off guided mode *)
  r_corpus_size : int;
  r_corpus_added : int;
  r_from_corpus : int;  (** candidates mutated from corpus entries *)
}

let shrink_fuel = 300_000

let roundtrip_fails ast =
  let src = Pretty.exp_to_string ast in
  match Parser.exp_of_string src with
  | exception _ -> true
  | ast' -> not (Ast.exp_equal ast ast')

let roundtrip_failure (p : program) : failure list =
  if not (roundtrip_fails p.p_ast) then []
  else begin
    let msg =
      match Parser.exp_of_string p.p_source with
      | exception Diag.Error d ->
          Printf.sprintf "pretty-printed source no longer parses: %s %s"
            d.Diag.code d.Diag.message
      | exception e ->
          Printf.sprintf "pretty-printed source no longer parses: %s"
            (Printexc.to_string e)
      | _ -> "pretty -> parse changed the program (up to locations)"
    in
    let shr = shrink ~still_fails:roundtrip_fails p.p_ast in
    [
      {
        f_index = p.p_index;
        f_origin = p.p_origin;
        f_oracle = Roundtrip;
        f_message = msg;
        f_source = p.p_source;
        f_shrunk = Pretty.exp_to_string shr;
        f_shrunk_nodes = Ast.exp_size shr;
      };
    ]
  end

let typechecks ast =
  match Check.typecheck ast with _ -> true | exception _ -> false

let agreement_fails ast =
  match Theorems.check_agreement_result ~fuel:shrink_fuel ast with
  | Ok _ -> false
  | Error _ -> true

(* What the agreement oracle reads of a batch job: whether it failed,
   and how.  A batch keeps nothing else of the job. *)
let verdict _name res = Result.map ignore res

let agreement_failure (p : program) (res : (unit, Diag.diagnostic) result) :
    failure list =
  match res with
  | Ok _ -> []
  | Error (d : Diag.diagnostic) ->
      let msg =
        Printf.sprintf "%s [%s] %s" d.Diag.code
          (Diag.phase_name d.Diag.phase)
          d.Diag.message
      in
      let pred =
        match d.Diag.phase with
        | Diag.Translate | Diag.Eval ->
            (* Keep the interesting shape: candidates must still
               typecheck and still break the theorem/agreement check,
               not merely be ill typed. *)
            fun a -> typechecks a && agreement_fails a
        | _ -> agreement_fails
      in
      let shr = shrink ~still_fails:pred p.p_ast in
      [
        {
          f_index = p.p_index;
          f_origin = p.p_origin;
          f_oracle = Agreement;
          f_message = msg;
          f_source = p.p_source;
          f_shrunk = Pretty.exp_to_string shr;
          f_shrunk_nodes = Ast.exp_size shr;
        };
      ]

(* Recovery oracle: a corrupted program must be rejected with at least
   one error diagnostic, without crashing and without succeeding. *)
let recovery_bad sess src =
  match Session.run_full ~fuel:shrink_fuel sess src with
  | exception e -> Some ("recovering pipeline crashed: " ^ Printexc.to_string e)
  | { Session.outcome = Some _; _ } ->
      Some "corrupted program was accepted by the recovering pipeline"
  | { Session.outcome = None; diagnostics } ->
      if List.exists (fun d -> d.Diag.severity = Diag.Err) diagnostics then None
      else Some "corrupted program produced no error diagnostics"

type mutant_kind = KBadChar | KTrailJunk | KUndefVar | KBadConcept

let rec wrap_residual f (e : Ast.exp) =
  match e.Ast.desc with
  | Ast.ConceptDecl (d, b) -> Ast.concept_decl d (wrap_residual f b)
  | Ast.ModelDecl (d, b) -> Ast.model_decl d (wrap_residual f b)
  | Ast.Using (n, b) -> Ast.using n (wrap_residual f b)
  | Ast.TypeAlias (n, t, b) -> Ast.type_alias n t (wrap_residual f b)
  | Ast.Let (x, e1, b) -> Ast.let_ x e1 (wrap_residual f b)
  | _ -> f e

let mutant_of r kind (p : program) : string * Ast.exp option =
  match kind with
  | KBadChar ->
      let len = String.length p.p_source in
      let pos = if len = 0 then 0 else rint r len in
      ( String.sub p.p_source 0 pos ^ "@"
        ^ String.sub p.p_source pos (len - pos),
        None )
  | KTrailJunk -> (p.p_source ^ "\n)", None)
  | KUndefVar ->
      let ast =
        wrap_residual
          (fun e -> Ast.app (Ast.var "fz_undefined_var") [ e ])
          p.p_ast
      in
      (Pretty.exp_to_string ast, Some ast)
  | KBadConcept ->
      let ast =
        wrap_residual
          (fun _ -> Ast.member "FzNoSuchConcept" [ tint ] "fzzz")
          p.p_ast
      in
      (Pretty.exp_to_string ast, Some ast)

let recovery_failures cfg sess mutants_run (p : program) : failure list =
  let r = rng_of ~seed:cfg.seed ~index:(cfg.count + p.p_index) in
  List.concat
    (List.init cfg.mutants (fun _ ->
         let kind =
           rchoose r [ KBadChar; KTrailJunk; KUndefVar; KBadConcept ]
         in
         let src, ast = mutant_of r kind p in
         incr mutants_run;
         match recovery_bad sess src with
         | None -> []
         | Some msg ->
             let shrunk_src, shrunk_nodes =
               match ast with
               | Some a ->
                   let pred c =
                     recovery_bad sess (Pretty.exp_to_string c) <> None
                   in
                   let shr = shrink ~still_fails:pred a in
                   (Pretty.exp_to_string shr, Ast.exp_size shr)
               | None ->
                   let pred s = recovery_bad sess s <> None in
                   let shr = shrink_text ~still_fails:pred src in
                   let nodes =
                     match Parser.exp_of_string shr with
                     | exception _ -> 0
                     | a -> Ast.exp_size a
                   in
                   (shr, nodes)
             in
             [
               {
                 f_index = p.p_index;
                 f_origin = p.p_origin;
                 f_oracle = Recovery;
                 f_message = msg;
                 f_source = src;
                 f_shrunk = shrunk_src;
                 f_shrunk_nodes = shrunk_nodes;
               };
             ]))

let run_blind ?domains (cfg : config) =
  let before = Coverage.snapshot () in
  let programs = List.init cfg.count (fun i -> generate cfg ~index:i) in
  let sess = Session.of_config Session.Config.default in
  let jobs =
    List.map
      (fun p -> (Printf.sprintf "fuzz-%d-%d" cfg.seed p.p_index, p.p_source))
      programs
  in
  let batch = Session.map_batch ?domains sess jobs verdict in
  let rsess = Session.of_config Session.Config.default in
  let mutants_run = ref 0 in
  let failures =
    List.concat
      (List.map2
         (fun p res ->
           roundtrip_failure p @ agreement_failure p res
           @ recovery_failures cfg rsess mutants_run p)
         programs batch)
  in
  {
    r_config = cfg;
    r_generated = List.length programs;
    r_mutants_run = !mutants_run;
    r_failures = failures;
    (* Blind runs measure a whole-run delta (for coverage comparisons —
       see tools/ci.sh) but never guide on it; it is surfaced in text
       output only, so the pinned JSON report shape is unchanged. *)
    r_coverage = Coverage.diff (Coverage.snapshot ()) before;
    r_corpus_size = 0;
    r_corpus_added = 0;
    r_from_corpus = 0;
  }

(* ------------------------------------------------------------------ *)
(* Corpus mutators.

   Small syntactic edits over a parsed corpus entry: decl splice/drop,
   type-argument swap, model shadow/unshadow, where-clause add/drop.
   Mutants need not stay well typed — ill-typed mutants explore the
   diagnostic and recovery space, and the measurement step classifies
   each outcome instead of assuming acceptance. *)

(* Body and rebuilder of a declaration-spine node. *)
let decl_parts (e : Ast.exp) : (Ast.exp * (Ast.exp -> Ast.exp)) option =
  match e.Ast.desc with
  | Ast.ConceptDecl (d, b) -> Some (b, fun b' -> Ast.concept_decl d b')
  | Ast.ModelDecl (d, b) -> Some (b, fun b' -> Ast.model_decl d b')
  | Ast.Using (n, b) -> Some (b, fun b' -> Ast.using n b')
  | Ast.TypeAlias (n, t, b) -> Some (b, fun b' -> Ast.type_alias n t b')
  | Ast.Let (x, e1, b) -> Some (b, fun b' -> Ast.let_ x e1 b')
  | _ -> None

let spine_length e =
  let rec go e n =
    match decl_parts e with Some (b, _) -> go b (n + 1) | None -> n
  in
  go e 0

(* Rebuild [e] with every node mapped by [f] (children first handled by
   the caller's recursion; [f] itself applies to one level). *)
let map_children f (e : Ast.exp) : Ast.exp =
  let mk d = { e with Ast.desc = d } in
  match e.Ast.desc with
  | Ast.Var _ | Ast.Lit _ | Ast.Prim _ | Ast.Member _ -> e
  | Ast.App (g, args) -> mk (Ast.App (f g, List.map f args))
  | Ast.TyApp (g, tys) -> mk (Ast.TyApp (f g, tys))
  | Ast.Abs (ps, b) -> mk (Ast.Abs (ps, f b))
  | Ast.TyAbs (ts, cs, b) -> mk (Ast.TyAbs (ts, cs, f b))
  | Ast.Let (x, e1, b) -> mk (Ast.Let (x, f e1, f b))
  | Ast.Tuple es -> mk (Ast.Tuple (List.map f es))
  | Ast.Nth (e1, k) -> mk (Ast.Nth (f e1, k))
  | Ast.Fix (x, t, b) -> mk (Ast.Fix (x, t, f b))
  | Ast.If (c, a, b) -> mk (Ast.If (f c, f a, f b))
  | Ast.ConceptDecl (d, b) ->
      mk
        (Ast.ConceptDecl
           ( { d with
               Ast.c_defaults =
                 List.map (fun (m, e) -> (m, f e)) d.Ast.c_defaults },
             f b ))
  | Ast.ModelDecl (d, b) ->
      mk
        (Ast.ModelDecl
           ( { d with
               Ast.m_members =
                 List.map (fun (m, e) -> (m, f e)) d.Ast.m_members },
             f b ))
  | Ast.Using (n, b) -> mk (Ast.Using (n, f b))
  | Ast.TypeAlias (n, t, b) -> mk (Ast.TypeAlias (n, t, f b))

let rec iter_exp f (e : Ast.exp) =
  f e;
  ignore
    (map_children
       (fun c ->
         iter_exp f c;
         c)
       e)

(* Drop the [k]-th declaration on the spine (its body floats up). *)
let mut_decl_drop r ast =
  let n = spine_length ast in
  if n = 0 then None
  else
    let k = rint r n in
    let rec go e k =
      match decl_parts e with
      | Some (b, rebuild) -> if k = 0 then b else rebuild (go b (k - 1))
      | None -> e
    in
    Some (go ast k)

(* Splice a random declaration from a donor entry's spine onto the
   front of the target. *)
let mut_decl_splice r ~donor ast =
  let n = spine_length donor in
  if n = 0 then None
  else
    let k = rint r n in
    let rec nth_rebuild e k =
      match decl_parts e with
      | Some (b, rebuild) -> if k = 0 then Some rebuild else nth_rebuild b (k - 1)
      | None -> None
    in
    Option.map (fun rebuild -> rebuild ast) (nth_rebuild donor k)

(* Swap one type argument of the [k]-th TyApp site for a random ground
   type. *)
let mut_tyarg_swap r ast =
  let sites = ref 0 in
  iter_exp
    (fun e ->
      match e.Ast.desc with
      | Ast.TyApp (_, tys) when tys <> [] -> incr sites
      | _ -> ())
    ast;
  if !sites = 0 then None
  else begin
    let target = rint r !sites in
    let ground = rchoose r [ tint; tbool; tlist tint ] in
    let seen = ref 0 in
    let rec go e =
      let e =
        match e.Ast.desc with
        | Ast.TyApp (g, tys) when tys <> [] ->
            let i = !seen in
            incr seen;
            if i = target then
              let j = rint r (List.length tys) in
              { e with Ast.desc = Ast.TyApp (g, replace_nth tys j ground) }
            else e
        | _ -> e
      in
      map_children go e
    in
    Some (go ast)
  end

(* Shadow (duplicate in place) or unshadow (drop) a model declaration
   on the spine — the lexical-scoping stress the paper cares about. *)
let mut_model_shadow r ast =
  let models = ref 0 in
  let rec count e =
    (match e.Ast.desc with Ast.ModelDecl _ -> incr models | _ -> ());
    match decl_parts e with Some (b, _) -> count b | None -> ()
  in
  count ast;
  if !models = 0 then None
  else begin
    let target = rint r !models in
    let shadow = rchance r 0.5 in
    let seen = ref 0 in
    let rec go e =
      match e.Ast.desc with
      | Ast.ModelDecl (d, b) ->
          let i = !seen in
          incr seen;
          if i = target then
            if shadow then Ast.model_decl d (Ast.model_decl d b)
            else b
          else Ast.model_decl d (go b)
      | _ -> (
          match decl_parts e with
          | Some (b, rebuild) -> rebuild (go b)
          | None -> e)
    in
    Some (go ast)
  end

(* Add or drop a where-clause constraint on the [k]-th TyAbs node. *)
let mut_where_edit r ast =
  let sites = ref 0 in
  iter_exp
    (fun e -> match e.Ast.desc with Ast.TyAbs _ -> incr sites | _ -> ())
    ast;
  if !sites = 0 then None
  else begin
    (* Concept names visible anywhere in the entry, for added models. *)
    let concepts = ref [] in
    iter_exp
      (fun e ->
        match e.Ast.desc with
        | Ast.ConceptDecl (d, _) -> concepts := d.Ast.c_name :: !concepts
        | Ast.Member (c, _, _) -> concepts := c :: !concepts
        | Ast.TyAbs (_, cs, _) ->
            List.iter
              (function
                | Ast.CModel (c, _) -> concepts := c :: !concepts
                | Ast.CSame _ -> ())
              cs
        | _ -> ())
      ast;
    let target = rint r !sites in
    let seen = ref 0 in
    let changed = ref false in
    let rec go e =
      let e =
        match e.Ast.desc with
        | Ast.TyAbs (ts, cs, b) ->
            let i = !seen in
            incr seen;
            if i <> target then e
            else if cs <> [] && rchance r 0.5 then begin
              (* drop a random constraint *)
              let j = rint r (List.length cs) in
              changed := true;
              { e with
                Ast.desc =
                  Ast.TyAbs (ts, List.filteri (fun k _ -> k <> j) cs, b) }
            end
            else if ts <> [] && !concepts <> [] then begin
              let c = rchoose r !concepts in
              let tv = rchoose r ts in
              changed := true;
              { e with
                Ast.desc =
                  Ast.TyAbs (ts, cs @ [ Ast.CModel (c, [ Ast.TVar tv ]) ], b)
              }
            end
            else e
        | _ -> e
      in
      map_children go e
    in
    let ast' = go ast in
    if !changed then Some ast' else None
  end

(* One mutation attempt: pick a mutator by weight and fall through the
   others if it does not apply to this entry. *)
let mutate r ~donor ast =
  let order =
    rweighted r
      [
        (3, [ `Splice; `TyArg; `Shadow; `Where; `Drop ]);
        (3, [ `TyArg; `Where; `Splice; `Drop; `Shadow ]);
        (2, [ `Shadow; `Splice; `TyArg; `Drop; `Where ]);
        (2, [ `Where; `TyArg; `Shadow; `Splice; `Drop ]);
        (1, [ `Drop; `Splice; `Where; `TyArg; `Shadow ]);
      ]
  in
  let apply = function
    | `Drop -> mut_decl_drop r ast
    | `Splice -> mut_decl_splice r ~donor ast
    | `TyArg -> mut_tyarg_swap r ast
    | `Shadow -> mut_model_shadow r ast
    | `Where -> mut_where_edit r ast
  in
  List.fold_left
    (fun acc m -> match acc with Some _ -> acc | None -> apply m)
    None order

(* ------------------------------------------------------------------ *)
(* On-disk corpus (diskcache conventions: entries named by content
   digest, written to a temp file then atomically renamed, so parallel
   workers and crashes never leave a torn entry). *)

let rec mkdirs d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdirs (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let corpus_digest source = Digest.to_hex (Digest.string source)

let corpus_write ~dir ~digest source =
  mkdirs dir;
  let path = Filename.concat dir (digest ^ ".fg") in
  if not (Sys.file_exists path) then begin
    match Filename.temp_file ~temp_dir:dir ".corpus-" ".tmp" with
    | exception Sys_error _ -> ()
    | tmp -> (
        match open_out_bin tmp with
        | exception Sys_error _ -> ()
        | oc ->
            output_string oc source;
            close_out oc;
            (try Sys.rename tmp path
             with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())))
  end

let corpus_load ~dir =
  match Sys.is_directory dir with
  | exception Sys_error _ -> []
  | false -> []
  | true ->
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".fg")
      |> List.sort String.compare
      |> List.filter_map (fun f ->
             match open_in_bin (Filename.concat dir f) with
             | exception Sys_error _ -> None
             | ic ->
                 let n = in_channel_length ic in
                 let s = really_input_string ic n in
                 close_in ic;
                 Some (Filename.remove_extension f, s))

(* ------------------------------------------------------------------ *)
(* Coverage-guided mode.

   Phase A is strictly sequential: each candidate (mutated from the
   corpus, or generated when the corpus is dry) runs through a fresh
   session bracketed by coverage snapshots, so its delta is exact, the
   corpus-admission decisions are a pure function of (seed, corpus),
   and the reported coverage map — the union of the per-candidate
   deltas — is byte-identical whatever [?domains] is.  Phase B then
   fans the oracles out over domains exactly like blind mode; nothing
   it does feeds back into the map or the corpus. *)

(* How a candidate's recovering run classified. *)
type measured =
  | MWellTyped
  | MRejected  (* at least one error diagnostic: explored error space *)
  | MCrash of string
  | MSilent  (* rejected without a single error diagnostic *)

let measure src =
  let before = Coverage.snapshot () in
  let m =
    let sess = Session.of_config Session.Config.default in
    match Session.run_full ~fuel:shrink_fuel sess src with
    | exception e -> MCrash (Printexc.to_string e)
    | { Session.outcome = Some _; _ } -> MWellTyped
    | { Session.outcome = None; diagnostics } ->
        if List.exists (fun d -> d.Diag.severity = Diag.Err) diagnostics then
          MRejected
        else MSilent
  in
  (m, Coverage.diff (Coverage.snapshot ()) before)

(* A candidate whose recovering run crashed or got silently dropped is
   a recovery-oracle failure whatever its origin. *)
let guided_bad src =
  let sess = Session.of_config Session.Config.default in
  match Session.run_full ~fuel:shrink_fuel sess src with
  | exception _ -> true
  | { Session.outcome = None; diagnostics } ->
      not (List.exists (fun d -> d.Diag.severity = Diag.Err) diagnostics)
  | _ -> false

let guided_failure (p : program) msg =
  let pred c = guided_bad (Pretty.exp_to_string c) in
  let shr = try shrink ~still_fails:pred p.p_ast with _ -> p.p_ast in
  {
    f_index = p.p_index;
    f_origin = p.p_origin;
    f_oracle = Recovery;
    f_message = msg;
    f_source = p.p_source;
    f_shrunk = Pretty.exp_to_string shr;
    f_shrunk_nodes = Ast.exp_size shr;
  }

(* Shrink budget for corpus admission: novelty is usually preserved by
   much smaller programs, but we cannot afford blind-shrinker fuel on
   every interesting input. *)
let corpus_shrink_fuel = 96

let run_guided ?domains (cfg : config) =
  (* In-memory corpus: only entries that re-parse can seed mutations;
     everything is tracked by digest so an entry is admitted once. *)
  let initial =
    match cfg.corpus_dir with Some d -> corpus_load ~dir:d | None -> []
  in
  let corpus = ref [] in
  let known = Hashtbl.create 64 in
  List.iter
    (fun (digest, src) ->
      if not (Hashtbl.mem known digest) then begin
        Hashtbl.replace known digest ();
        match Parser.exp_of_string src with
        | exception _ -> ()
        | ast -> corpus := (digest, src, ast) :: !corpus
      end)
    initial;
  corpus := List.rev !corpus;
  let added = ref 0 in
  let acc = ref [] in
  let from_corpus = ref 0 in
  let candidates = ref [] in
  for i = 0 to cfg.count - 1 do
    let r = rng_of ~seed:cfg.seed ~index:i in
    let mutated =
      if !corpus <> [] && rchance r 0.75 then begin
        let _, _, base = rchoose r !corpus in
        let _, _, donor = rchoose r !corpus in
        match mutate r ~donor base with
        | None -> None
        | Some ast0 ->
            let source = Pretty.exp_to_string ast0 in
            let ast = try Parser.exp_of_string source with _ -> ast0 in
            Some { p_index = i; p_origin = Corpus; p_ast = ast; p_source = source }
      end
      else None
    in
    let p =
      match mutated with
      | Some p ->
          incr from_corpus;
          p
      | None -> generate cfg ~index:i
    in
    let m, delta = measure p.p_source in
    let novel =
      List.filter (fun k -> not (List.mem_assoc k !acc)) (Coverage.keys delta)
    in
    acc := Coverage.merge !acc delta;
    if novel <> [] then begin
      (* Minimize while the novel decision points stay covered, then
         admit to the corpus (and persist, when a directory is given). *)
      let covers src =
        let _, d = measure src in
        let ks = Coverage.keys d in
        List.for_all (fun k -> List.mem k ks) novel
      in
      let small =
        try
          shrink ~fuel:corpus_shrink_fuel
            ~still_fails:(fun c -> covers (Pretty.exp_to_string c))
            p.p_ast
        with _ -> p.p_ast
      in
      let small_src = Pretty.exp_to_string small in
      let src = if covers small_src then small_src else p.p_source in
      let digest = corpus_digest src in
      if not (Hashtbl.mem known digest) then begin
        Hashtbl.replace known digest ();
        (match Parser.exp_of_string src with
        | exception _ -> ()
        | ast -> corpus := !corpus @ [ (digest, src, ast) ]);
        incr added;
        match cfg.corpus_dir with
        | Some d -> corpus_write ~dir:d ~digest src
        | None -> ()
      end
    end;
    candidates := (p, m) :: !candidates
  done;
  let programs = List.rev !candidates in
  (* Phase B: oracles, fanned out like blind mode.  Only candidates the
     recovering pipeline accepted run the agreement batch. *)
  let well_typed =
    List.filter (fun (_, m) -> match m with MWellTyped -> true | _ -> false)
      programs
  in
  let jobs =
    List.map
      (fun (p, _) ->
        (Printf.sprintf "fuzz-%d-%d" cfg.seed p.p_index, p.p_source))
      well_typed
  in
  let batch =
    Session.map_batch ?domains (Session.of_config Session.Config.default) jobs
      verdict
  in
  let agree = Hashtbl.create 32 in
  List.iter2
    (fun (p, _) res -> Hashtbl.replace agree p.p_index res)
    well_typed batch;
  let rsess = Session.of_config Session.Config.default in
  let mutants_run = ref 0 in
  let failures =
    List.concat
      (List.map
         (fun (p, m) ->
           let classed =
             match m with
             | MCrash msg ->
                 [ guided_failure p ("recovering pipeline crashed: " ^ msg) ]
             | MSilent ->
                 [
                   guided_failure p
                     "rejected program produced no error diagnostics";
                 ]
             | MWellTyped | MRejected -> []
           in
           let oracles =
             match m with
             | MWellTyped ->
                 roundtrip_failure p
                 @ agreement_failure p (Hashtbl.find agree p.p_index)
             | _ -> []
           in
           classed @ oracles @ recovery_failures cfg rsess mutants_run p)
         programs)
  in
  {
    r_config = cfg;
    r_generated = List.length programs;
    r_mutants_run = !mutants_run;
    r_failures = failures;
    r_coverage = !acc;
    r_corpus_size = Hashtbl.length known;
    r_corpus_added = !added;
    r_from_corpus = !from_corpus;
  }

let run ?domains cfg =
  if cfg.guided || cfg.corpus_dir <> None then
    run_guided ?domains { cfg with guided = true }
  else run_blind ?domains cfg

(* ------------------------------------------------------------------ *)
(* Reporting. *)

let failure_to_json f =
  Json.Obj
    ([ ("index", Json.Int f.f_index);
       ("oracle", Json.Str (oracle_name f.f_oracle)) ]
    (* origin appears only for corpus mutants, keeping the pinned
       blind-mode failure shape unchanged *)
    @ (match f.f_origin with
      | Gen -> []
      | Corpus -> [ ("origin", Json.Str (origin_name f.f_origin)) ])
    @ [
        ("message", Json.Str f.f_message);
        ("source", Json.Str f.f_source);
        ("shrunk", Json.Str f.f_shrunk);
        ("shrunk_nodes", Json.Int f.f_shrunk_nodes);
      ])

let report_to_json r =
  Json.Obj
    ([
      ( "fuzz",
        Json.Obj
          ([
             ("seed", Json.Int r.r_config.seed);
             ("count", Json.Int r.r_config.count);
             ("size", Json.Int r.r_config.size);
             ("mutants", Json.Int r.r_config.mutants);
           ]
          (* guided appears only when on, keeping the pinned blind-mode
             JSON shape unchanged *)
          @ if r.r_config.guided then [ ("guided", Json.Bool true) ] else []) );
      ("generated", Json.Int r.r_generated);
      ("mutants_run", Json.Int r.r_mutants_run);
    ]
    (* coverage/corpus objects appear only in guided mode, keeping the
       pinned blind-mode report shape unchanged *)
    @ (if r.r_config.guided then
         [
           ( "coverage",
             Json.Obj
               [
                 ("distinct", Json.Int (Coverage.distinct r.r_coverage));
                 ("total", Json.Int (Coverage.total r.r_coverage));
                 ("map", Coverage.to_json r.r_coverage);
               ] );
           ( "corpus",
             Json.Obj
               [
                 ("size", Json.Int r.r_corpus_size);
                 ("added", Json.Int r.r_corpus_added);
                 ("from_corpus", Json.Int r.r_from_corpus);
               ] );
         ]
       else [])
    @ [
        ("ok", Json.Bool (r.r_failures = []));
        ("failures", Json.List (List.map failure_to_json r.r_failures));
      ])

let save_failures ~dir r =
  mkdirs dir;
  let counts = Hashtbl.create 8 in
  List.map
    (fun f ->
      let stem =
        Printf.sprintf "fuzz-%d-%d-%s" r.r_config.seed f.f_index
          (oracle_name f.f_oracle)
      in
      let n =
        match Hashtbl.find_opt counts stem with None -> 0 | Some n -> n
      in
      Hashtbl.replace counts stem (n + 1);
      let name = if n = 0 then stem else Printf.sprintf "%s-%d" stem n in
      let path = Filename.concat dir (name ^ ".fg") in
      let oc = open_out path in
      let line fmt = Printf.fprintf oc fmt in
      line "// fuzz counterexample (oracle: %s)\n" (oracle_name f.f_oracle);
      line "// seed %d, program %d, origin: %s\n" r.r_config.seed f.f_index
        (origin_name f.f_origin);
      List.iter
        (fun l -> line "// %s\n" l)
        (String.split_on_char '\n' f.f_message);
      line "%s\n" f.f_shrunk;
      line "\n// original:\n";
      List.iter
        (fun l -> line "// %s\n" l)
        (String.split_on_char '\n' f.f_source);
      close_out oc;
      path)
    r.r_failures
