(** Congruence closure over uninterpreted function symbols.

    This is the decision procedure for the quantifier-free theory of
    equality that System FG's same-type constraints reduce to (paper
    Section 5, citing Nelson and Oppen's O(n log n) algorithm).  Terms
    are interned into a node graph; {!merge} asserts an equality and
    propagates it upward through congruence ([a = b] implies
    [f(a) = f(b)]); {!equiv} answers queries; {!repr} returns the
    canonical member of a term's equivalence class — the translation to
    System F emits this representative for every type in a class.

    Representative preference is client-controlled via [prefer]: given
    two candidate terms it returns the one that should represent the
    class.  It is an argument of each operation that can merge classes,
    not part of the closure, so a closure is plain data and marshals
    without [Marshal.Closures].  The FG translation prefers plain type
    variables (earliest interned first) over associated-type
    projections, matching the paper's choice of [elt1] over [elt2] in
    the [merge] example. *)

module Uf = Fg_unionfind.Uf

type node = {
  id : int;
  term : Term.t;
  args : int list;  (** node ids of immediate subterms *)
}

type t = {
  uf : Uf.t;
  mutable nodes : node array;  (** indexed by node id *)
  mutable n_nodes : int;
  intern : (string * int list, int) Hashtbl.t;
      (** structural hashcons: (symbol, exact child ids) -> node id *)
  sigs : (string * int list, int) Hashtbl.t;
      (** congruence signatures: (symbol, child class roots) -> node id *)
  use : (int, int list) Hashtbl.t;
      (** class root -> ids of parent nodes with a child in that class *)
  best : (int, int) Hashtbl.t;
      (** class root -> the node holding the preferred member term *)
  mutable generation : int;
      (** bumped on every merge; lets clients cache query results *)
}

type prefer = Term.t -> Term.t -> Term.t

let default_prefer a b = if Term.compare a b <= 0 then a else b

let create () =
  {
    uf = Uf.create ();
    nodes = [||];
    n_nodes = 0;
    intern = Hashtbl.create 64;
    sigs = Hashtbl.create 64;
    use = Hashtbl.create 64;
    best = Hashtbl.create 64;
    generation = 0;
  }

let generation t = t.generation
let size t = t.n_nodes

let node t id =
  if id < 0 || id >= t.n_nodes then
    Fg_util.Diag.ice "congruence: node id %d out of range" id;
  t.nodes.(id)

let store_node t n =
  if t.n_nodes >= Array.length t.nodes then begin
    let cap = max 16 (2 * Array.length t.nodes) in
    let arr = Array.make cap n in
    Array.blit t.nodes 0 arr 0 t.n_nodes;
    t.nodes <- arr
  end;
  t.nodes.(t.n_nodes) <- n;
  t.n_nodes <- t.n_nodes + 1

let use_of t root = Option.value (Hashtbl.find_opt t.use root) ~default:[]

let signature t n = (n.term.Term.sym, List.map (Uf.find t.uf) n.args)

(* Merge propagation worklist.  Each entry is a pair of node ids whose
   classes must be unified. *)
let rec process ~prefer t worklist =
  match worklist with
  | [] -> ()
  | (x, y) :: rest ->
      let rx = Uf.find t.uf x and ry = Uf.find t.uf y in
      if rx = ry then process ~prefer t rest
      else begin
        t.generation <- t.generation + 1;
        let px = use_of t rx and py = use_of t ry in
        (* Drop the parents' stale signatures before the union changes
           child roots. *)
        List.iter (fun p -> Hashtbl.remove t.sigs (signature t (node t p))) px;
        List.iter (fun p -> Hashtbl.remove t.sigs (signature t (node t p))) py;
        let bx = Hashtbl.find t.best rx and by = Hashtbl.find t.best ry in
        let tx = (node t bx).term in
        let r = Uf.union t.uf rx ry in
        let dead = if r = rx then ry else rx in
        Hashtbl.remove t.use dead;
        Hashtbl.remove t.best dead;
        Hashtbl.replace t.use r (px @ py);
        Hashtbl.replace t.best r
          (if prefer tx (node t by).term == tx then bx else by);
        (* Re-insert parents; congruent collisions feed the worklist. *)
        let extra = ref rest in
        List.iter
          (fun p ->
            let s = signature t (node t p) in
            match Hashtbl.find_opt t.sigs s with
            | Some q when Uf.find t.uf q <> Uf.find t.uf p ->
                extra := (p, q) :: !extra
            | Some _ -> ()
            | None -> Hashtbl.add t.sigs s p)
          (px @ py);
        process ~prefer t !extra
      end

(** Intern [term], returning its node id.  Subterms are interned first;
    if a congruent node already exists (same symbol, equivalent
    children) the new node is merged into its class immediately. *)
let rec add ?(prefer = default_prefer) t (term : Term.t) =
  let args = List.map (add ~prefer t) term.args in
  match Hashtbl.find_opt t.intern (term.sym, args) with
  | Some id -> id
  | None ->
      let id = Uf.make_set t.uf in
      let n = { id; term; args } in
      store_node t n;
      Hashtbl.add t.intern (term.sym, args) id;
      Hashtbl.replace t.best id id;
      List.iter
        (fun a ->
          let ra = Uf.find t.uf a in
          Hashtbl.replace t.use ra (id :: use_of t ra))
        args;
      (let s = signature t n in
       match Hashtbl.find_opt t.sigs s with
       | Some q -> process ~prefer t [ (id, q) ]
       | None -> Hashtbl.add t.sigs s id);
      id

(** Assert that [a] and [b] are equal. *)
let merge ?(prefer = default_prefer) t a b =
  let x = add ~prefer t a and y = add ~prefer t b in
  process ~prefer t [ (x, y) ]

(** Are [a] and [b] in the same class under the asserted equalities? *)
let equiv ?prefer t a b =
  let x = add ?prefer t a and y = add ?prefer t b in
  Uf.equiv t.uf x y

(** The preferred member of [a]'s class, rebuilt recursively so every
    subterm is also canonical.  A depth fuse guards against cyclic
    equalities such as [x = f(x)], which have no finite canonical form —
    FG's typing rules never generate them, but user programs can write
    them, so we fail with a diagnostic rather than diverge. *)
let repr_interned ?prefer ?(max_depth = 10_000) t a =
  (* Interned once; below the top, the preferred member's node already
     names its children's nodes, so the walk is linear in the result. *)
  let canonical = ref true in
  let rec go depth id =
    let best_id = Hashtbl.find t.best (Uf.find t.uf id) in
    if depth > 0 && best_id <> id then canonical := false;
    if depth > max_depth then
      Fg_util.Diag.ice
        "congruence: no finite representative (cyclic equality involving %s)"
        (Term.to_string a);
    let best = node t best_id in
    let term = best.term in
    if term.Term.args = [] then term
    else
      let args' = List.map (go (depth + 1)) best.args in
      if List.equal ( == ) args' term.Term.args then term
      else Term.make term.Term.sym args'
  in
  let r = go 0 (add ?prefer t a) in
  (r, !canonical)

let repr ?prefer ?max_depth t a = fst (repr_interned ?prefer ?max_depth t a)

(** All equivalence classes, as lists of interned terms (tests only). *)
let classes t =
  let tbl = Hashtbl.create 16 in
  for id = t.n_nodes - 1 downto 0 do
    let r = Uf.find t.uf id in
    let cur = Option.value (Hashtbl.find_opt tbl r) ~default:[] in
    Hashtbl.replace tbl r ((node t id).term :: cur)
  done;
  Hashtbl.fold (fun _ members acc -> members :: acc) tbl []

let count_classes t = List.length (classes t)
