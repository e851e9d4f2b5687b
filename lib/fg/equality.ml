(** Type equality for System FG: the relation [Γ ⊢ σ = τ].

    With associated types and same-type constraints, type equality is no
    longer syntactic: it is the congruence generated by the equalities in
    the environment — same-type constraints from where clauses,
    associated-type assignments from model declarations, the fresh-
    variable equations [s' = C<τ̄>.s] introduced for proxy models, and
    type aliases.  Deciding it is exactly the quantifier-free theory of
    equality with uninterpreted function symbols (paper Section 5, citing
    Nelson–Oppen), which {!Fg_congruence.Closure} implements.

    The interface is persistent: {!assume} returns a new value, so the
    checker's environments can share and extend equality contexts along
    lexical scopes.  The congruence closure itself is rebuilt lazily per
    distinct context and cached.

    Representatives ({!repr}) drive the translation: every member of an
    equivalence class is translated to the same System F type, namely the
    class representative.  Preference order: a fully ground type, then a
    plain type variable (earliest-seen first, which picks [elt1] over
    [elt2] in the paper's [merge] example), then any assoc-free type,
    then associated-type projections.

    Limitation (documented, tested): universally quantified types are
    compared up to alpha-equivalence as opaque atoms, so equalities do
    not propagate {e into} the bodies of [forall] types.  The paper's
    same-type constraints only ever relate monotypes. *)

open Ast
open Fg_util
module Term = Fg_congruence.Term
module Closure = Fg_congruence.Closure

type cache = {
  cc : Closure.t;
  var_seq : (string, int) Hashtbl.t;  (** type variable -> first-seen index *)
  foralls : (string, ty) Hashtbl.t;  (** opaque forall symbol -> original *)
  mutable next_seq : int;
  repr_memo : (ty, int * ty) Hashtbl.t;
      (** type -> (closure generation, representative).  Any class
          change bumps the closure generation, so a memo entry is valid
          exactly while the generation matches. *)
}

type t = {
  assumptions : (ty * ty) list;  (** newest first *)
  cache : cache option ref;
}

(* A function, not a shared value: the closure behind [cache] is
   mutated by every query (encoding interns new terms), so two
   environments that shared one empty context would also share one
   unsynchronized closure, and sessions on different domains would race
   on it. *)
let empty () = { assumptions = []; cache = ref None }

let assume eq a b =
  { assumptions = (a, b) :: eq.assumptions; cache = ref None }

let assume_all eq pairs = List.fold_left (fun e (a, b) -> assume e a b) eq pairs

let assumptions eq = List.rev eq.assumptions

(* ---------------------------------------------------------------- *)
(* Encoding types as congruence terms                                *)

(* Alpha-canonical rendering of a forall type: binders renamed to
   positional names that cannot collide with source identifiers. *)
let canonical_forall (tvs, constrs, body) =
  let renaming =
    List.mapi (fun i a -> (a, TVar (Printf.sprintf "#%d" i))) tvs
  in
  let t' =
    TForall
      ( List.mapi (fun i _ -> Printf.sprintf "#%d" i) tvs,
        List.map (subst_constr_list renaming) constrs,
        subst_ty_list renaming body )
  in
  Pp_util.to_flat_string Pretty.pp_ty t'

let register_var cache a =
  if not (Hashtbl.mem cache.var_seq a) then begin
    Hashtbl.add cache.var_seq a cache.next_seq;
    cache.next_seq <- cache.next_seq + 1
  end

let rec encode cache (t : ty) : Term.t =
  match t with
  | TBase TInt -> Term.const "b:int"
  | TBase TBool -> Term.const "b:bool"
  | TBase TUnit -> Term.const "b:unit"
  | TVar a ->
      register_var cache a;
      Term.const ("v:" ^ a)
  | TArrow (args, ret) ->
      Term.make
        (Printf.sprintf "fn/%d" (List.length args))
        (List.map (encode cache) args @ [ encode cache ret ])
  | TTuple ts ->
      Term.make
        (Printf.sprintf "tup/%d" (List.length ts))
        (List.map (encode cache) ts)
  | TList t -> Term.make "list" [ encode cache t ]
  | TAssoc (c, args, s) ->
      Term.make
        (Printf.sprintf "a:%s.%s/%d" c s (List.length args))
        (List.map (encode cache) args)
  | TForall (tvs, constrs, body) ->
      let sym = "forall:" ^ canonical_forall (tvs, constrs, body) in
      if not (Hashtbl.mem cache.foralls sym) then
        Hashtbl.add cache.foralls sym t;
      Term.const sym

(* ---------------------------------------------------------------- *)
(* Decoding representative terms back to types                       *)

let split_symbol sym =
  match String.index_opt sym ':' with
  | Some i ->
      (String.sub sym 0 i, String.sub sym (i + 1) (String.length sym - i - 1))
  | None -> ("", sym)

let rec decode cache (t : Term.t) : ty =
  let kind, rest = split_symbol t.Term.sym in
  match kind with
  | "b" -> (
      match rest with
      | "int" -> TBase TInt
      | "bool" -> TBase TBool
      | "unit" -> TBase TUnit
      | _ -> Diag.ice "equality: bad base symbol %s" t.Term.sym)
  | "v" -> TVar rest
  | "forall" -> (
      match Hashtbl.find_opt cache.foralls t.Term.sym with
      | Some ty -> ty
      | None -> Diag.ice "equality: unregistered forall symbol")
  | "a" -> (
      (* a:C.s/n *)
      match String.rindex_opt rest '/' with
      | Some j -> (
          let cs = String.sub rest 0 j in
          match String.index_opt cs '.' with
          | Some k ->
              let c = String.sub cs 0 k in
              let s = String.sub cs (k + 1) (String.length cs - k - 1) in
              TAssoc (c, List.map (decode cache) t.Term.args, s)
          | None -> Diag.ice "equality: bad assoc symbol %s" t.Term.sym)
      | None -> Diag.ice "equality: bad assoc symbol %s" t.Term.sym)
  | "" -> (
      match (t.Term.sym, t.Term.args) with
      | "list", [ x ] -> TList (decode cache x)
      | sym, args when String.length sym >= 3 && String.sub sym 0 3 = "tup" ->
          TTuple (List.map (decode cache) args)
      | sym, args when String.length sym >= 2 && String.sub sym 0 2 = "fn" -> (
          match List.rev args with
          | ret :: rargs ->
              TArrow (List.rev_map (decode cache) rargs, decode cache ret)
          | [] -> Diag.ice "equality: nullary fn symbol")
      | sym, _ -> Diag.ice "equality: unknown symbol %s" sym)
  | k -> Diag.ice "equality: unknown symbol kind %s" k

(* ---------------------------------------------------------------- *)
(* Representative preference                                         *)

type category = Ground | Variable | AssocFree | HasAssoc

let category_rank = function
  | Ground -> 0
  | Variable -> 1
  | AssocFree -> 2
  | HasAssoc -> 3

let rec term_category (t : Term.t) : category =
  let kind, _ = split_symbol t.Term.sym in
  match kind with
  | "v" -> Variable
  | "a" -> HasAssoc
  | _ ->
      (* A composite is Ground when all children are; any non-ground
         child (including a variable) makes it AssocFree; an assoc
         anywhere makes it HasAssoc. *)
      List.fold_left
        (fun acc a ->
          match (acc, term_category a) with
          | HasAssoc, _ | _, HasAssoc -> HasAssoc
          | Ground, Ground -> Ground
          | _, _ -> AssocFree)
        Ground t.Term.args

let make_prefer cache (a : Term.t) (b : Term.t) : Term.t =
  let ca = term_category a and cb = term_category b in
  let ra = category_rank ca and rb = category_rank cb in
  if ra < rb then a
  else if rb < ra then b
  else
    match (ca, a.Term.sym, b.Term.sym) with
    | Variable, sa, sb ->
        (* Earliest-seen variable wins: picks elt1 over elt2. *)
        let seq s =
          match Hashtbl.find_opt cache.var_seq (snd (split_symbol s)) with
          | Some n -> n
          | None -> max_int
        in
        if seq sa <= seq sb then a else b
    | _ -> if Term.compare a b <= 0 then a else b

(* ---------------------------------------------------------------- *)
(* Cache construction and queries                                    *)

let build eq : cache =
  Telemetry.record_cc_rebuild ();
  let cache =
    {
      cc = Closure.create ();
      var_seq = Hashtbl.create 16;
      foralls = Hashtbl.create 8;
      next_seq = 0;
      repr_memo = Hashtbl.create 64;
    }
  in
  List.iter
    (fun (a, b) ->
      Closure.merge ~prefer:(make_prefer cache) cache.cc (encode cache a)
        (encode cache b))
    (List.rev eq.assumptions);
  cache

let force eq =
  match !(eq.cache) with
  | Some c -> c
  | None ->
      let c = build eq in
      eq.cache := Some c;
      c

(** [equal eq a b] — does [a = b] follow from the assumptions? *)
let equal eq a b =
  ty_equal a b
  ||
  let c = force eq in
  Closure.equiv ~prefer:(make_prefer c) c.cc (encode c a) (encode c b)

(** Canonical representative of [a]'s equivalence class.  Memoized per
    closure generation: re-asking for the representative of the same
    type (the checker does, constantly) is a hash lookup as long as no
    class has been merged since. *)
let repr eq a =
  let c = force eq in
  let gen = Closure.generation c.cc in
  match Hashtbl.find_opt c.repr_memo a with
  | Some (g, r) when g = gen -> r
  | _ ->
      let r =
        decode c (Closure.repr ~prefer:(make_prefer c) c.cc (encode c a))
      in
      (* encoding may intern new terms and trigger congruence merges;
         record the generation the result is valid for *)
      Hashtbl.replace c.repr_memo a (Closure.generation c.cc, r);
      r

(** Number of distinct classes among the interned terms (stats/bench). *)
let class_count eq = Closure.count_classes (force eq).cc
