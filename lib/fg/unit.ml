(** Declaration-granular compilation units (see the interface).

    Each declaration of a spine becomes a unit addressed by a content
    hash chained through its dependencies:

      pkey = H(resolution mode ‖ escape-check flag ‖ gensym position ‖
               file ‖ span line/cols ‖ decl source bytes ‖ dep pkeys)
      key  = pkey ‖ env family

    The portable key (pkey) addresses the persistent tiers — the disk
    store — which outlive any process; the memory map
    additionally scopes it by the process-local environment family.

    The content is the declaration's source text together with its
    file and the line/col of its span, so a cached unit can only ever
    be replayed for the same text at the same lines of the same file,
    which is exactly the re-check and shared-prefix scenarios and keeps
    every diagnostic and elaborated location byte-identical.  Hashing
    bytes the walk already holds costs far less than re-encoding the
    parsed declaration, which matters because a warm walk computes a
    key for every declaration it replays.  The gensym position makes the
    fresh names a unit consumed part of its address, the dependency
    keys cover (transitively) everything the checker could observe in
    scope, and the family confines hits to environments descending from
    one [Env.create] — a cached type alias's frame holds its environment
    and with it the family's shared supplies, so replaying it under a
    foreign family would not be byte-identical.

    A cache hit replays a unit instead of re-checking it: the recorded
    environment delta is re-applied, the fresh-name supply fast-forwards
    to the recorded end position, the Global ablation's overlap delta is
    re-pushed, and the unit's recorded warnings are re-reported (once —
    this is what keeps FG0701/FG0702 exactly-once per program).  Failed
    declarations are never cached; after the first failure in a walk the
    cache is bypassed entirely, so error programs behave exactly as a
    cold recovering check. *)

open Fg_util
module F = Fg_systemf
module Sset = Names.Sset

let p_recover_poison = Coverage.probe "recover.check.poison"

type triple = Ast.ty * Ast.exp * F.Ast.exp

type checked = {
  ck_key : string;
  ck_pkey : string;
  ck_deps : string list;
  ck_info : Declgraph.info;
  ck_frame : Check.frame;
  ck_gensym_end : int;
  ck_globals_delta : (string * Ast.ty list) list;
  ck_warnings : Diag.diagnostic list;
}

(* ---------------------------------------------------------------- *)
(* Persistent tiers                                                  *)

type store = {
  st_name : string;
  st_get : string -> string option;
  st_put : string -> string -> unit;
}

(* ---------------------------------------------------------------- *)
(* The bounded cache                                                  *)

(* Entries sit on a doubly linked recency list, most recent first, so
   a touch, an insert and an eviction each cost O(1): the victim is the
   list's last entry, the least recently touched one. *)
type entry = {
  e_key : string;
  e_unit : checked;
  mutable newer : entry option;
  mutable older : entry option;
}

type cache = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable newest : entry option;
  mutable oldest : entry option;
  mutable stores : store list;
      (** persistent tiers behind the memory map, consulted in order;
          empty by default *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  invalidations : int Atomic.t;
  size : int Atomic.t;
      (** mirrors [Hashtbl.length tbl]; atomic so other domains (the
          server's stats endpoint) can read a consistent value while
          the owning domain mutates the table *)
}

let default_capacity = 512

let create_cache ?(capacity = default_capacity) () =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 64;
    newest = None;
    oldest = None;
    stores = [];
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    invalidations = Atomic.make 0;
    size = Atomic.make 0;
  }

type stats = {
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_invalidations : int;
  s_size : int;
  s_capacity : int;
}

let stats c =
  {
    s_hits = Atomic.get c.hits;
    s_misses = Atomic.get c.misses;
    s_evictions = Atomic.get c.evictions;
    s_invalidations = Atomic.get c.invalidations;
    s_size = Atomic.get c.size;
    s_capacity = c.capacity;
  }

let unlink c e =
  (match e.newer with
  | Some n -> n.older <- e.older
  | None -> c.newest <- e.older);
  (match e.older with
  | Some o -> o.newer <- e.newer
  | None -> c.oldest <- e.newer);
  e.newer <- None;
  e.older <- None

let push_newest c e =
  e.older <- c.newest;
  (match c.newest with
  | Some n -> n.newer <- Some e
  | None -> c.oldest <- Some e);
  c.newest <- Some e

let set_stores c stores = c.stores <- stores
let persistent c = c.stores <> []

(* The memory tier alone; the tiered [find] below decides whether a
   memory miss is a real miss (nothing deeper either) or a hit served
   from a deeper tier. *)
let find_mem c key =
  match Hashtbl.find_opt c.tbl key with
  | Some e ->
      unlink c e;
      push_newest c e;
      Some e.e_unit
  | None -> None

let record_hit c =
  Atomic.incr c.hits;
  Telemetry.record_unit_hit ()

(* A miss means the checker actually ran: [unit_misses] is the "unit
   re-checks" number the cache-smoke CI asserts to be zero on a warm
   store, so it is bumped only when every tier came up empty. *)
let record_miss c =
  Atomic.incr c.misses;
  Telemetry.record_unit_miss ()

let remove c key =
  match Hashtbl.find_opt c.tbl key with
  | Some e ->
      Hashtbl.remove c.tbl key;
      unlink c e;
      ignore (Atomic.fetch_and_add c.size (-1))
  | None -> ()

let evict_oldest c =
  match c.oldest with
  | None -> ()
  | Some e ->
      remove c e.e_key;
      Atomic.incr c.evictions;
      Telemetry.record_unit_eviction ()

let insert_mem c (u : checked) =
  if not (Hashtbl.mem c.tbl u.ck_key) then begin
    while Atomic.get c.size >= c.capacity do
      evict_oldest c
    done;
    let e = { e_key = u.ck_key; e_unit = u; newer = None; older = None } in
    Hashtbl.replace c.tbl u.ck_key e;
    push_newest c e;
    ignore (Atomic.fetch_and_add c.size 1)
  end

(* ---------------------------------------------------------------- *)
(* Marshalling units through persistent tiers                         *)

(* A unit is plain data (its frame holds no functions), so a blob
   carries no code pointers and decoding it never digests the code
   segment.  Nothing in a blob says which build's types it was written
   with: the disk store's build-id stamp is what keeps a foreign
   build's blobs from ever reaching [decode].  A unit that cannot be
   encoded is simply not persisted. *)
let encode (u : checked) = try Some (Marshal.to_string u []) with _ -> None

(* Decoding guards the failure modes a stamped blob can still have:
   truncation and wire-format drift (Failure from [Marshal]), and a
   blob that unmarshals but was stored under the wrong address (the
   embedded pkey disagrees).  Both count as corrupt and read as a
   miss — never a crash. *)
let decode ~pkey blob : checked option =
  match (Marshal.from_string blob 0 : checked) with
  | u when String.equal u.ck_pkey pkey -> Some u
  | _ | (exception _) ->
      Telemetry.record_corrupt_entry ();
      None

let store_put st pkey blob = try st.st_put pkey blob with _ -> ()

(* Insert a freshly checked unit: memory, then write-through to every
   persistent tier (content-addressed by the portable key). *)
let insert c (u : checked) =
  insert_mem c u;
  if c.stores <> [] && u.ck_pkey <> "" then
    match encode u with
    | None -> ()
    | Some blob -> List.iter (fun st -> store_put st u.ck_pkey blob) c.stores

(* memory, then the stores in order: the first decodable hit is
   promoted into the memory map under the current family-scoped key. *)
let find c ~key ~pkey ~dep_keys =
  match find_mem c key with
  | Some u ->
      record_hit c;
      Some u
  | None -> (
      let from_store st =
        match st.st_get pkey with
        | Some blob -> decode ~pkey blob
        | None | (exception _) -> None
      in
      match List.find_map from_store c.stores with
      | None ->
          record_miss c;
          None
      | Some u ->
          let u = { u with ck_key = key; ck_pkey = pkey; ck_deps = dep_keys } in
          insert_mem c u;
          record_hit c;
          Some u)

module KSet = Set.Make (String)

let invalidate c ~protect ~seeds =
  match seeds with
  | [] -> 0
  | _ ->
      let protect = KSet.of_list protect in
      let invalid = ref (KSet.of_list seeds) in
      let changed = ref true in
      while !changed do
        changed := false;
        Hashtbl.iter
          (fun key e ->
            if
              (not (KSet.mem key !invalid))
              && List.exists (fun d -> KSet.mem d !invalid) e.e_unit.ck_deps
            then begin
              invalid := KSet.add key !invalid;
              changed := true
            end)
          c.tbl
      done;
      let dropped = ref 0 in
      KSet.iter
        (fun key ->
          if (not (KSet.mem key protect)) && Hashtbl.mem c.tbl key then begin
            remove c key;
            incr dropped
          end)
        !invalid;
      (* count the shadowed units themselves as bumped, so a
         redefinition is observable even when nothing depended on it *)
      let n = !dropped + List.length seeds in
      ignore (Atomic.fetch_and_add c.invalidations n);
      Telemetry.record_unit_invalidations n;
      n

(* ---------------------------------------------------------------- *)
(* Keys                                                               *)

(* The portable key is everything the checker can observe except the
   environment family: families are allocated from a per-process
   counter, so they can never agree across processes.  Persistent tiers
   are addressed by the portable key; the memory map scopes it by
   family (a cached frame may share supplies with its environment, so
   in-memory replay stays confined to environments descending from one
   [Env.create]).

   A declaration's content is its own source text.  Both parsers end a
   declaration's span at its trailing "in", so the bytes under the span
   are exactly the header the checker reads; the body is the next unit
   or the residual.  Read from the span's start line and column in its
   file, those bytes fix every line and column inside the declaration,
   and line/col are the only positions diagnostics and elaborated terms
   show.  Byte offsets, which shift whenever an earlier declaration
   changes length, stay out of the key, so such an edit re-checks only
   what it touched.  The span's end line/col is kept too: two parses
   that bound a declaration differently never share a key.

   Everything goes into one digest of bytes written into [b], a buffer
   the walk reuses for every declaration (a warm walk computes a key for
   each declaration it replays).  Integers are fixed-width, the file and
   the header bytes are length-prefixed, and dependency pkeys are
   fixed-size digests, so distinct inputs never write the same bytes. *)
let pkey_of b ~(env : Env.t) ~gensym_start ~source (decl : Ast.exp)
    ~dep_pkeys =
  let { Loc.file; start_pos = s; end_pos = e } = decl.Ast.loc in
  let len = e.Loc.offset - s.Loc.offset in
  if s.Loc.offset < 0 || len < 0 || e.Loc.offset > String.length source then
    Diag.ice "Unit.walk: declaration span %s lies outside its source"
      (Loc.to_string decl.Ast.loc);
  Buffer.clear b;
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let str x =
    int (String.length x);
    Buffer.add_string b x
  in
  str (Resolution.mode_name env.Env.resolution);
  int (Bool.to_int env.Env.escape_check);
  int gensym_start;
  str file;
  int s.Loc.line;
  int s.Loc.col;
  int e.Loc.line;
  int e.Loc.col;
  int len;
  Buffer.add_substring b source s.Loc.offset len;
  List.iter (Buffer.add_string b) dep_pkeys;
  Digest.string (Buffer.contents b)

(* ---------------------------------------------------------------- *)
(* The disk tier as a store                                          *)

let disk_store (d : Diskcache.t) =
  { st_name = "disk"; st_get = Diskcache.get d; st_put = Diskcache.put d }

(* ---------------------------------------------------------------- *)
(* The walk                                                           *)

type decl_outcome = Dhit | Dchecked | Dfailed

(* [w_units] only holds successful units (a failed declaration produces
   none, and after a failure later units bypass the cache), so it
   cannot be paired back with the program's declarations.  [w_decls]
   can: one entry per spine declaration of the walked program, in
   order, with the pkey it was addressed by ("" once recovery has
   failed) and what happened to it.  The workspace uses this to rebase
   its position index over replayed declarations. *)
type walk_result = {
  w_env : Env.t;
  w_residual : Ast.exp;
  w_frames : Check.frame list;
  w_units : checked list;
  w_decls : (Ast.exp * string * decl_outcome) list;
  w_poisoned : Sset.t;
}

let unwind frames res =
  List.fold_left (fun res f -> Check.wrap f res) res frames

let split_spine (e : Ast.exp) : Ast.exp list * Ast.exp =
  let rec go acc e =
    match Check.decl_body e with
    | Some body when Declgraph.is_decl e -> go (e :: acc) body
    | _ -> (List.rev acc, e)
  in
  go [] e

(* Entries pushed onto the Global overlap set during one unit's check:
   model declarations prepend, so the delta is the new prefix. *)
let globals_delta ~before after =
  let n = List.length after - List.length before in
  let rec take n l =
    if n <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (n - 1) tl
  in
  take n after

(* The units a walk starts from, with their keys and the dependency
   analysis state after the last of them.  Only [extend_spine] adds
   units, and it extends the analysis with the same units, so the two
   cannot disagree. *)
type spine = {
  sp_units : checked list;  (** in declaration order *)
  sp_keys : string array;
  sp_pkeys : string array;
  sp_graph : Declgraph.t;
}

let empty_spine (env : Env.t) =
  {
    sp_units = [];
    sp_keys = [||];
    sp_pkeys = [||];
    sp_graph =
      Declgraph.empty ~global:(env.Env.resolution = Resolution.Global);
  }

let extend_spine sp units =
  let field f = Array.of_list (List.map f units) in
  let graph, _ = Declgraph.extend sp.sp_graph (field (fun u -> u.ck_info)) in
  {
    sp_units = sp.sp_units @ units;
    sp_keys = Array.append sp.sp_keys (field (fun u -> u.ck_key));
    sp_pkeys = Array.append sp.sp_pkeys (field (fun u -> u.ck_pkey));
    sp_graph = graph;
  }

let spine_units sp = sp.sp_units

(* A spine's units depend only on earlier units of the same spine, so
   each dependency's new key is known by the time it is needed. *)
let adopt c sp (env : Env.t) =
  let family = string_of_int env.Env.family in
  let rekey = Hashtbl.create 64 in
  let units =
    List.map
      (fun u ->
        let key = u.ck_pkey ^ family in
        Hashtbl.replace rekey u.ck_key key;
        {
          u with
          ck_key = key;
          ck_deps = List.map (Hashtbl.find rekey) u.ck_deps;
        })
      sp.sp_units
  in
  List.iter (insert_mem c) units;
  {
    sp with
    sp_units = units;
    sp_keys = Array.of_list (List.map (fun u -> u.ck_key) units);
  }

let walk ?recover ?(poisoned = Sset.empty) cache ~source ~(spine : spine) env0
    ast : walk_result =
  let decls, residual = split_spine ast in
  if
    Declgraph.global spine.sp_graph
    <> (env0.Env.resolution = Resolution.Global)
  then Diag.ice "Unit.walk: spine analysed under another resolution mode";
  (* Only this program's declarations are analysed, and only with a
     cache; the spine's state stands for everything before them.  Edges
     are spine indices: below [n_spine] they name spine units, above it
     this walk's. *)
  let infos, deps =
    match cache with
    | None -> ([||], [||])
    | Some _ ->
        let infos = Array.of_list (List.map Declgraph.info_of_decl decls) in
        (infos, snd (Declgraph.extend spine.sp_graph infos))
  in
  let n_spine = Array.length spine.sp_keys in
  let keys = Array.make (Array.length infos) "" in
  let pkeys = Array.make (Array.length infos) "" in
  let dep_key j =
    if j < n_spine then spine.sp_keys.(j) else keys.(j - n_spine)
  in
  let dep_pkey j =
    if j < n_spine then spine.sp_pkeys.(j) else pkeys.(j - n_spine)
  in
  let env = ref env0 in
  let key_bytes = Buffer.create 512 in
  (* The memory key is the pkey scoped by the environment family, which
     every extension of [env0] keeps.  pkeys are fixed-size, so
     appending the family is unambiguous. *)
  let family = string_of_int env0.Env.family in
  let frames = ref [] in
  let units = ref [] in
  let dlog = ref [] in
  let poisoned = ref poisoned in
  (* Without a cache, and from the first failing declaration on, nothing
     is keyed, looked up or inserted, and no unit is recorded. *)
  let keyed = ref cache in
  let commit (u : checked) =
    env := Check.extend !env u.ck_frame;
    Gensym.restore !env.Env.gensym u.ck_gensym_end;
    if u.ck_globals_delta <> [] then
      !env.Env.global_models :=
        u.ck_globals_delta @ !(!env.Env.global_models);
    frames := u.ck_frame :: !frames;
    units := u :: !units
  in
  List.iteri
    (fun i decl ->
      let pkey, found =
        match !keyed with
        | None -> ("", None)
        | Some cache ->
            let gensym_start = Gensym.mark !env.Env.gensym in
            let pkey =
              pkey_of key_bytes ~env:!env ~gensym_start ~source decl
                ~dep_pkeys:(List.map dep_pkey deps.(i))
            in
            let key = pkey ^ family in
            keys.(i) <- key;
            pkeys.(i) <- pkey;
            (pkey, find cache ~key ~pkey ~dep_keys:(List.map dep_key deps.(i)))
      in
      match found with
      | Some u ->
          (* replay: re-extend the environment, fast-forward the
             fresh-name supply, re-report the recorded warnings once *)
          let sink = !(!env.Env.diag) in
          commit u;
          dlog := (decl, pkey, Dhit) :: !dlog;
          List.iter (fun d -> Diag.report sink d) u.ck_warnings
      | None -> (
          let diag_cell = !env.Env.diag in
          let outer = !diag_cell in
          (* read before the check: a Global-mode model declaration
             pushes its overlap entry while it is checked *)
          let globals_before = !(!env.Env.global_models) in
          let capture = Diag.engine () in
          diag_cell := capture;
          let finish () =
            diag_cell := outer;
            let warnings = Diag.diagnostics capture in
            List.iter (fun d -> Diag.report outer d) warnings;
            warnings
          in
          match Check.check_decl_parts !env decl with
          | exception Diag.Error d -> (
              ignore (finish ());
              match recover with
              | None -> raise (Diag.Error d)
              | Some engine ->
                  Coverage.hit p_recover_poison;
                  if not (Check.is_cascade !poisoned d) then
                    Diag.report engine d;
                  poisoned :=
                    List.fold_left
                      (fun s n -> Sset.add n s)
                      !poisoned (Check.decl_poison decl);
                  dlog := (decl, pkey, Dfailed) :: !dlog;
                  keyed := None)
          | None ->
              ignore (finish ());
              Diag.ice "Unit.walk: split_spine produced a non-declaration"
          | Some (frame, _body) ->
              let env' = Check.extend !env frame in
              let warnings = finish () in
              Option.iter
                (fun cache ->
                  let u =
                    {
                      ck_key = keys.(i);
                      ck_pkey = pkey;
                      ck_deps = List.map dep_key deps.(i);
                      ck_info = infos.(i);
                      ck_frame = frame;
                      ck_gensym_end = Gensym.mark env'.Env.gensym;
                      ck_globals_delta =
                        globals_delta ~before:globals_before
                          !(env'.Env.global_models);
                      ck_warnings = warnings;
                    }
                  in
                  insert cache u;
                  units := u :: !units)
                !keyed;
              env := env';
              frames := frame :: !frames;
              dlog := (decl, pkey, Dchecked) :: !dlog))
    decls;
  {
    w_env = !env;
    w_residual = residual;
    w_frames = !frames;
    w_units = List.rev !units;
    w_decls = List.rev !dlog;
    w_poisoned = !poisoned;
  }
