(* Specializing backend: stenciling + gcshape-style sharing over the
   dictionary-passing translation.

   The translated program is a spine of top-level [let]s (prelude
   declarations, then program declarations) around a residual body.
   We rewrite every spine right-hand side and the body, and insert new
   spine bindings — stencils and hoisted dictionaries — immediately
   before the entry under which they were discovered.  The original
   polymorphic bindings are never removed: top-level [let]s cost no
   beta steps, and keeping them makes every fallback (budget overrun,
   non-static dictionary, hybrid sharing) a no-op rather than an
   error.

   Soundness invariants:
   - only *ground* instantiations are stenciled (no free type
     variables in the type arguments), so substitution is closed;
   - dictionary arguments are only inlined when *static*: every free
     variable is a spine binding defined strictly earlier, or a
     binding we generated ourselves.  Non-atomic static dictionaries
     are hoisted to fresh spine lets (shared by rendering), so
     inlining never duplicates construction steps;
   - spine names that are shadowed (defined more than once on the
     spine) take no part in specialization — neither as stencil
     sources nor as static atoms — which keeps name resolution
     position-independent;
   - self-recursion is detected by an in-progress key map and closed
     with [fix], typed by instantiating the original fix annotation;
     polymorphic recursion is bounded by a global stencil budget and a
     chain-depth cap, beyond which calls fall back to dictionary
     passing. *)

open Fg_util
module A = Ast
module Smap = Names.Smap
module Sset = Names.Sset

type mode = Stencil | Hybrid

type stats = {
  st_stencils : int;
  st_shared : int;
  st_fallbacks : int;
  st_hoisted : int;
  st_rewritten : int;
}

let zero_stats =
  {
    st_stencils = 0;
    st_shared = 0;
    st_fallbacks = 0;
    st_hoisted = 0;
    st_rewritten = 0;
  }

let changed s = s.st_rewritten > 0 || s.st_hoisted > 0 || s.st_stencils > 0

(* Keep stenciling bounded on adversarial (fuzzed) programs: at most
   this many clones per program, and at most this many full stencils
   in flight at once (polymorphic recursion depth). *)
let max_stencils = 256
let max_depth = 24

(* gcshape of a type: what the hybrid backend considers "the same
   layout".  Base types keep their identity (value members differ),
   lists erase their element (one pointer shape, as in Go's gcshape
   stenciling), functions erase everything but arity (closures are
   code+environment pointers). *)
let rec shape_ty (t : A.ty) : string =
  match t with
  | A.TBase A.TInt -> "i"
  | A.TBase A.TBool -> "b"
  | A.TBase A.TUnit -> "u"
  | A.TVar _ -> "v"
  | A.TList _ -> "L"
  | A.TArrow (args, _) -> "F" ^ string_of_int (List.length args)
  | A.TTuple ts -> "(" ^ String.concat "" (List.map shape_ty ts) ^ ")"
  | A.TForall (_, t) -> "A" ^ shape_ty t

(* Every name that occurs anywhere in the program, bound or free —
   the avoid-set for generated stencil/hoist names. *)
let rec all_names acc (e : A.exp) =
  match e.desc with
  | A.Var x -> Sset.add x acc
  | A.Lit _ | A.Prim _ -> acc
  | A.App (f, args) -> List.fold_left all_names (all_names acc f) args
  | A.Abs (ps, b) ->
      all_names (List.fold_left (fun a (x, _) -> Sset.add x a) acc ps) b
  | A.TyAbs (_, b) -> all_names acc b
  | A.TyApp (f, _) -> all_names acc f
  | A.Let (x, r, b) -> all_names (all_names (Sset.add x acc) r) b
  | A.Tuple es -> List.fold_left all_names acc es
  | A.Nth (e0, _) -> all_names acc e0
  | A.Fix (x, _, b) -> all_names (Sset.add x acc) b
  | A.If (c, t, f) -> all_names (all_names (all_names acc c) t) f

type def = { d_rhs : A.exp; d_index : int }

(* A spine binding peeled down to its generic core. *)
type peeled = {
  p_fix : (string * A.ty) option;  (* fix binder and annotation *)
  p_tvs : string list;
  p_gbody : A.exp;  (* under the type abstraction *)
}

let peel (rhs : A.exp) : peeled option =
  match rhs.desc with
  | A.TyAbs (tvs, gbody) -> Some { p_fix = None; p_tvs = tvs; p_gbody = gbody }
  | A.Fix (fn, fty, { desc = A.TyAbs (tvs, gbody); _ }) ->
      Some { p_fix = Some (fn, fty); p_tvs = tvs; p_gbody = gbody }
  | _ -> None

type st = {
  mode : mode;
  senv : (string, def) Hashtbl.t;  (* uniquely-named spine defs *)
  gen_bodies : (string, A.exp) Hashtbl.t;  (* generated name -> rhs *)
  memo : (string, string) Hashtbl.t;  (* stencil key -> stencil name *)
  shapes : (string, string) Hashtbl.t;  (* shape key -> owning stencil key *)
  hoists : (string, string) Hashtbl.t;  (* rendered dict -> hoist name *)
  pending : (int, (string * A.exp) list ref) Hashtbl.t;
      (* spine position -> generated bindings, newest first *)
  mutable in_progress : (string * string) list;  (* (key, name), innermost first *)
  mutable rec_marks : Sset.t;  (* stencils observed self-recursive *)
  mutable names : Sset.t;
  mutable counter : int;
  mutable budget : int;
  mutable stencils : int;
  mutable shared : int;
  mutable fallbacks : int;
  mutable hoisted : int;
  mutable rewritten : int;
}

let fresh st base =
  let rec go () =
    st.counter <- st.counter + 1;
    let n = base ^ string_of_int st.counter in
    if Sset.mem n st.names then go ()
    else begin
      st.names <- Sset.add n st.names;
      n
    end
  in
  go ()

let pend st pos binding =
  let r =
    match Hashtbl.find_opt st.pending pos with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add st.pending pos r;
        r
  in
  r := binding :: !r

let is_atom (e : A.exp) =
  match e.desc with A.Var _ | A.Prim _ | A.Lit _ -> true | _ -> false

let ground tys = List.for_all (fun t -> Sset.is_empty (A.ftv t)) tys

(* Static at spine position [pos]: every free variable is an earlier
   spine binding or one we generated (generated names are fresh, so
   they can never be locally shadowed). *)
let static_at st ~pos ~bound e =
  Sset.for_all
    (fun x ->
      (not (Sset.mem x bound))
      && (match Hashtbl.find_opt st.senv x with
         | Some d -> d.d_index < pos
         | None -> Hashtbl.mem st.gen_bodies x))
    (A.free_vars e)

let ty_key t = Pretty.ty_to_string t
let exp_key e = Pretty.exp_to_string e

(* The type-only stencil memo's key for an instantiation site. *)
let instantiation_key f tys =
  Printf.sprintf "%s[%s]" f (String.concat "," (List.map ty_key tys))

(* Replace a non-atomic static dictionary argument by a fresh spine
   binding, shared across call sites by rendering. *)
let atomize st ~pos base (arg : A.exp) : A.exp =
  if is_atom arg then arg
  else
    let key = exp_key arg in
    match Hashtbl.find_opt st.hoists key with
    | Some n -> A.var n
    | None ->
        let n = fresh st (base ^ "__d") in
        Hashtbl.replace st.hoists key n;
        Hashtbl.replace st.gen_bodies n arg;
        pend st pos (n, arg);
        st.hoisted <- st.hoisted + 1;
        A.var n

(* Reduce a projection through a statically known dictionary tuple to
   its member witness, when the member is an atom that still resolves
   at the use site. *)
let project st ~bound (e0 : A.exp) k : A.exp option =
  match e0.desc with
  | A.Var x when not (Sset.mem x bound) -> (
      let rhs =
        match Hashtbl.find_opt st.senv x with
        | Some d -> Some d.d_rhs
        | None -> Hashtbl.find_opt st.gen_bodies x
      in
      match rhs with
      | Some { desc = A.Tuple es; _ } when k >= 0 && k < List.length es -> (
          let m = List.nth es k in
          match m.desc with
          | A.Prim _ | A.Lit _ -> Some m
          | A.Var y
            when (not (Sset.mem y bound))
                 && (Hashtbl.mem st.senv y || Hashtbl.mem st.gen_bodies y) ->
              Some m
          | _ -> None)
      | _ -> None)
  | _ -> None

let rec rw st ~pos ~bound (e : A.exp) : A.exp =
  match e.desc with
  | A.Var _ | A.Lit _ | A.Prim _ -> e
  | A.App (({ desc = A.TyApp (fh, tys); _ } as fnode), args) -> (
      let args' = List.map (rw st ~pos ~bound) args in
      match try_call st ~pos ~bound ~loc:e.loc fh tys (Some args') with
      | Some e' -> e'
      | None ->
          let fh' = rw st ~pos ~bound fh in
          {
            e with
            desc = A.App ({ fnode with desc = A.TyApp (fh', tys) }, args');
          })
  | A.TyApp (fh, tys) -> (
      match try_call st ~pos ~bound ~loc:e.loc fh tys None with
      | Some e' -> e'
      | None -> { e with desc = A.TyApp (rw st ~pos ~bound fh, tys) })
  | A.App (f, args) ->
      {
        e with
        desc = A.App (rw st ~pos ~bound f, List.map (rw st ~pos ~bound) args);
      }
  | A.Abs (ps, b) ->
      let bound' = List.fold_left (fun a (x, _) -> Sset.add x a) bound ps in
      { e with desc = A.Abs (ps, rw st ~pos ~bound:bound' b) }
  | A.TyAbs (tvs, b) -> { e with desc = A.TyAbs (tvs, rw st ~pos ~bound b) }
  | A.Let (x, r, b) ->
      {
        e with
        desc =
          A.Let
            (x, rw st ~pos ~bound r, rw st ~pos ~bound:(Sset.add x bound) b);
      }
  | A.Tuple es -> { e with desc = A.Tuple (List.map (rw st ~pos ~bound) es) }
  | A.Nth (e0, k) -> (
      let e0' = rw st ~pos ~bound e0 in
      match project st ~bound e0' k with
      | Some atom -> atom
      | None -> { e with desc = A.Nth (e0', k) })
  | A.Fix (x, t, b) ->
      { e with desc = A.Fix (x, t, rw st ~pos ~bound:(Sset.add x bound) b) }
  | A.If (c, t, f) ->
      {
        e with
        desc =
          A.If (rw st ~pos ~bound c, rw st ~pos ~bound t, rw st ~pos ~bound f);
      }

(* A candidate call: [f[tys]] or [f[tys](dargs)] where [f] is an
   unshadowed spine generic and the type arguments are ground. *)
and try_call st ~pos ~bound ~loc fh tys dargs : A.exp option =
  match fh.desc with
  | A.Var f when not (Sset.mem f bound) -> (
      match Hashtbl.find_opt st.senv f with
      | Some d when d.d_index < pos -> (
          match peel d.d_rhs with
          | Some p when List.length p.p_tvs = List.length tys && ground tys ->
              specialize_call st ~pos ~bound ~loc f p tys dargs
          | _ -> None)
      | _ -> None)
  | _ -> None

and specialize_call st ~pos ~bound ~loc f p tys dargs : A.exp option =
  let sub =
    List.fold_left2 (fun m v t -> Smap.add v t m) Smap.empty p.p_tvs tys
  in
  (* Full consumption: the generic's body is a dictionary group (every
     parameter dictionary-typed) and every argument is static. *)
  let full =
    match (p.p_gbody.desc, dargs) with
    | A.Abs (dps, inner), Some args
      when List.length dps = List.length args
           && List.for_all
                (fun (_, t) -> match t with A.TTuple _ -> true | _ -> false)
                dps
           && List.for_all (static_at st ~pos ~bound) args ->
        Some (dps, inner, args)
    | _ -> None
  in
  match full with
  | Some (dps, inner, args) ->
      full_stencil st ~pos ~loc f p sub tys dps inner args
  | None -> (
      match (p.p_fix, dargs) with
      | None, None -> type_only st ~pos ~loc f p sub tys
      | None, Some args -> (
          match type_only st ~pos ~loc f p sub tys with
          | Some v -> Some (A.app ~loc v args)
          | None -> None)
      | Some _, _ ->
          st.fallbacks <- st.fallbacks + 1;
          None)

(* Clone [f] with types and dictionaries consumed.  The stencil's key
   includes the atomized dictionary arguments, so two call sites share
   a stencil exactly when they agree on types and witnesses. *)
and full_stencil st ~pos ~loc f p sub tys dps inner args : A.exp option =
  let atoms = List.map (atomize st ~pos f) args in
  let key =
    Printf.sprintf "%s[%s](%s)" f
      (String.concat "," (List.map ty_key tys))
      (String.concat "," (List.map exp_key atoms))
  in
  match List.assoc_opt key st.in_progress with
  | Some name ->
      (* self-recursive instantiation: refer to the stencil being
         built; it will be closed with [fix] *)
      st.rec_marks <- Sset.add name st.rec_marks;
      st.rewritten <- st.rewritten + 1;
      Some (A.var ~loc name)
  | None -> (
      match Hashtbl.find_opt st.memo key with
      | Some name ->
          st.rewritten <- st.rewritten + 1;
          Some (A.var ~loc name)
      | None ->
          let shape_key =
            f ^ "|"
            ^ String.concat ""
                (List.map (fun (_, t) -> shape_ty (A.subst_ty sub t)) dps)
          in
          let shared_out =
            st.mode = Hybrid
            && (match Hashtbl.find_opt st.shapes shape_key with
               | Some owner -> owner <> key
               | None -> false)
          in
          if shared_out then begin
            (* this shape class already owns a stencil: keep dictionary
               passing (with the dictionary hoisted), sharing the
               owner's code path the way gcshape instantiations share
               one compiled body *)
            st.shared <- st.shared + 1;
            Some (A.app ~loc (A.tyapp (A.var f) tys) atoms)
          end
          else
            (* Recursion prerequisites: if the fix binder occurs free
               in the body, it must be the spine name itself and the
               annotation must instantiate to a stencil type. *)
            let fix_ok, sc_ty =
              match p.p_fix with
              | None -> (true, None)
              | Some (fn, fty) ->
                  if not (Sset.mem fn (A.free_vars inner)) then (true, None)
                  else if fn <> f then (false, None)
                  else (
                    match fty with
                    | A.TForall (ftvs, A.TArrow (dtys, rty))
                      when List.length ftvs = List.length tys
                           && List.length dtys = List.length dps ->
                        let s =
                          List.fold_left2
                            (fun m v t -> Smap.add v t m)
                            Smap.empty ftvs tys
                        in
                        (true, Some (A.subst_ty s rty))
                    | _ -> (false, None))
            in
            if
              (not fix_ok) || st.budget <= 0
              || List.length st.in_progress >= max_depth
            then begin
              st.fallbacks <- st.fallbacks + 1;
              None
            end
            else begin
              st.budget <- st.budget - 1;
              st.stencils <- st.stencils + 1;
              if st.mode = Hybrid then Hashtbl.replace st.shapes shape_key key;
              let name = fresh st (f ^ "__s") in
              let body0 = A.subst_ty_exp sub inner in
              let smap =
                List.fold_left2
                  (fun m (x, _) a -> Smap.add x a m)
                  Smap.empty dps atoms
              in
              let body1 = A.subst_exp smap body0 in
              st.in_progress <- (key, name) :: st.in_progress;
              let body2 = rw st ~pos ~bound:Sset.empty body1 in
              st.in_progress <- List.tl st.in_progress;
              let rhs =
                if Sset.mem name st.rec_marks then
                  match sc_ty with
                  | Some t -> A.fix name t body2
                  | None -> body2 (* unreachable: fix_ok guarded above *)
                else body2
              in
              Hashtbl.replace st.gen_bodies name rhs;
              pend st pos (name, rhs);
              Hashtbl.replace st.memo key name;
              st.rewritten <- st.rewritten + 1;
              Some (A.var ~loc name)
            end)

(* Clone [f] with only the type arguments consumed (no dictionary
   group, or dictionaries that are not static).  Only for plain
   [TyAbs] bindings: a fix-bound generic's recursive [f[tys]] calls
   would dangle in a type-consumed clone. *)
and type_only st ~pos ~loc f p sub tys : A.exp option =
  match p.p_fix with
  | Some _ ->
      st.fallbacks <- st.fallbacks + 1;
      None
  | None -> (
      let key = instantiation_key f tys in
      match Hashtbl.find_opt st.memo key with
      | Some name ->
          st.rewritten <- st.rewritten + 1;
          Some (A.var ~loc name)
      | None ->
          let shape_key =
            f ^ "|ty|" ^ String.concat "" (List.map shape_ty tys)
          in
          let shared_out =
            st.mode = Hybrid
            && (match Hashtbl.find_opt st.shapes shape_key with
               | Some owner -> owner <> key
               | None -> false)
          in
          if shared_out then begin
            st.shared <- st.shared + 1;
            None
          end
          else if st.budget <= 0 then begin
            st.fallbacks <- st.fallbacks + 1;
            None
          end
          else begin
            st.budget <- st.budget - 1;
            st.stencils <- st.stencils + 1;
            if st.mode = Hybrid then Hashtbl.replace st.shapes shape_key key;
            let name = fresh st (f ^ "__s") in
            let body0 = A.subst_ty_exp sub p.p_gbody in
            let body1 = rw st ~pos ~bound:Sset.empty body0 in
            Hashtbl.replace st.gen_bodies name body1;
            pend st pos (name, body1);
            Hashtbl.replace st.memo key name;
            st.rewritten <- st.rewritten + 1;
            Some (A.var ~loc name)
          end)

let rec spine acc (e : A.exp) =
  match e.desc with
  | A.Let (x, r, b) -> spine ((x, r, e.loc) :: acc) b
  | _ -> (List.rev acc, e)

(* Register uniquely-named spine defs; shadowed names sit out. *)
let spine_env entries =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (x, _, _) ->
      Hashtbl.replace counts x
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts x)))
    entries;
  let senv = Hashtbl.create 64 in
  List.iteri
    (fun i (x, r, _) ->
      if Hashtbl.find counts x = 1 then
        Hashtbl.replace senv x { d_rhs = r; d_index = i })
    entries;
  senv

let specialize ~mode (prog : A.exp) : A.exp * stats =
  let entries, body = spine [] prog in
  if entries = [] then (prog, zero_stats)
  else begin
    let st =
      {
        mode;
        senv = spine_env entries;
        gen_bodies = Hashtbl.create 64;
        memo = Hashtbl.create 64;
        shapes = Hashtbl.create 64;
        hoists = Hashtbl.create 64;
        pending = Hashtbl.create 16;
        in_progress = [];
        rec_marks = Sset.empty;
        names = all_names Sset.empty prog;
        counter = 0;
        budget = max_stencils;
        stencils = 0;
        shared = 0;
        fallbacks = 0;
        hoisted = 0;
        rewritten = 0;
      }
    in
    let entries' =
      List.mapi
        (fun i (x, r, loc) -> (i, x, rw st ~pos:i ~bound:Sset.empty r, loc))
        entries
    in
    let n = List.length entries in
    let body' = rw st ~pos:n ~bound:Sset.empty body in
    let wrap_pending pos acc =
      match Hashtbl.find_opt st.pending pos with
      | None -> acc
      | Some r ->
          (* [!r] is newest first; wrapping left-to-right puts the
             newest binding innermost, so dependencies (older
             bindings) end up outermost *)
          List.fold_left (fun acc (x, rhs) -> A.let_ x rhs acc) acc !r
    in
    let result =
      List.fold_right
        (fun (i, x, rhs, loc) acc -> wrap_pending i (A.let_ ~loc x rhs acc))
        entries'
        (wrap_pending n body')
    in
    ( result,
      {
        st_stencils = st.stencils;
        st_shared = st.shared;
        st_fallbacks = st.fallbacks;
        st_hoisted = st.hoisted;
        st_rewritten = st.rewritten;
      } )
  end
