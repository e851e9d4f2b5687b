(** Declaration-granular compilation units (see the interface).

    Each declaration of a spine becomes a unit addressed by a content
    hash chained through the units before it:

      pkey = H(resolution mode ‖ escape-check flag ‖ indexed flag ‖
               gensym position ‖ file ‖ previous pkey ‖
               source bytes since the previous declaration's end)
      key  = pkey ‖ env family

    The portable key (pkey) addresses the persistent tiers — the disk
    store — which outlive any process; the memory map
    additionally scopes it by the process-local environment family.

    Chained through the previous pkey, the bytes cover the whole source
    before the declaration's end, and the first declaration's previous
    pkey covers the session's prelude and extensions: FG's declarations
    are lexically scoped, so that prefix fixes everything the checker
    can observe in scope, and a unit is replayed only for the same text
    at the same offsets of the same file — every diagnostic, elaborated
    location and index entry comes out byte-identical with no
    rebasing.  Hashing bytes the walk already holds costs far less than
    re-encoding the parsed declaration, which matters because a warm
    walk computes a key for every declaration it replays.  The gensym
    position makes the fresh names a unit consumed part of its address,
    the indexed flag keeps a walk that records position-index entries
    from replaying a unit that recorded none, and the family confines
    hits to environments descending from one [Env.create] — a cached
    type alias's frame holds its environment and with it the family's
    shared supplies, so replaying it under a foreign family would not
    be byte-identical.

    A cache hit replays a unit instead of re-checking it: the recorded
    environment delta is re-applied, the fresh-name supply fast-forwards
    to the recorded end position, the Global ablation's overlap delta is
    re-pushed, the unit's recorded warnings are re-reported (once —
    this is what keeps FG0701/FG0702 exactly-once per program) and its
    index entries go to the sink.  Failed declarations are never cached;
    after the first failure in a walk the cache is bypassed entirely, so
    error programs behave exactly as a cold recovering check. *)

open Fg_util
module F = Fg_systemf
module Sset = Names.Sset

let p_recover_poison = Coverage.probe "recover.check.poison"

type triple = Ast.ty * Ast.exp * F.Ast.exp

type checked = {
  ck_key : string;
  ck_pkey : string;
  ck_frame : Check.frame;
  ck_gensym_end : int;
  ck_globals_delta : (string * Ast.ty list) list;
  ck_warnings : Diag.diagnostic list;
  ck_entries : Check.index_entry list;
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
    size = Atomic.make 0;
  }

type stats = {
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_size : int;
  s_capacity : int;
}

let stats c =
  {
    s_hits = Atomic.get c.hits;
    s_misses = Atomic.get c.misses;
    s_evictions = Atomic.get c.evictions;
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

let evict_oldest c =
  match c.oldest with
  | None -> ()
  | Some e ->
      Hashtbl.remove c.tbl e.e_key;
      unlink c e;
      ignore (Atomic.fetch_and_add c.size (-1));
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
let find c ~key ~pkey =
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
          let u = { u with ck_key = key; ck_pkey = pkey } in
          insert_mem c u;
          record_hit c;
          Some u)

(* ---------------------------------------------------------------- *)
(* Keys                                                               *)

(* The portable key is everything the checker can observe except the
   environment family: families are allocated from a per-process
   counter, so they can never agree across processes.  Persistent tiers
   are addressed by the portable key; the memory map scopes it by
   family (a cached frame may share supplies with its environment, so
   in-memory replay stays confined to environments descending from one
   [Env.create]).

   A declaration's own content is the source from [from], the end of
   the previous declaration's span (0 for the first), to the end of its
   own.  Both parsers end a declaration's span at its trailing "in", so
   those bytes hold the header the checker reads and whatever precedes
   it since the last declaration (comments, blank lines); the body is
   the next unit or the residual.

   Everything goes into one digest of bytes written into [b], a buffer
   the walk reuses for every declaration (a warm walk computes a key for
   each declaration it replays).  Integers are fixed-width and the
   strings are length-prefixed, so distinct inputs never write the same
   bytes. *)
let pkey_of b ~(env : Env.t) ~indexed ~gensym_start ~source ~from ~prev
    (decl : Ast.exp) =
  let stop = decl.Ast.loc.Loc.end_pos.Loc.offset in
  if from < 0 || stop < from || stop > String.length source then
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
  int (Bool.to_int indexed);
  int gensym_start;
  str decl.Ast.loc.Loc.file;
  str prev;
  int (stop - from);
  Buffer.add_substring b source from (stop - from);
  Digest.string (Buffer.contents b)

(* ---------------------------------------------------------------- *)
(* The disk tier as a store                                          *)

let disk_store (d : Diskcache.t) =
  { st_name = "disk"; st_get = Diskcache.get d; st_put = Diskcache.put d }

(* ---------------------------------------------------------------- *)
(* The walk                                                           *)

type walk_result = {
  w_env : Env.t;
  w_residual : Ast.exp;
  w_frames : Check.frame list;
  w_chain : string;
  w_poisoned : Sset.t;
}

let unwind frames res =
  List.fold_left (fun res f -> Check.wrap f res) res frames

let split_spine (e : Ast.exp) : Ast.exp list * Ast.exp =
  let rec go acc e =
    match Check.decl_body e with
    | Some body -> go (e :: acc) body
    | None -> (List.rev acc, e)
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

let walk ?recover ?(poisoned = Sset.empty) cache ~source ~chain env0 ast :
    walk_result =
  let decls, residual = split_spine ast in
  let sink = Check.index_sink () in
  let env = ref env0 in
  let key_bytes = Buffer.create 512 in
  (* The memory key is the pkey scoped by the environment family, which
     every extension of [env0] keeps.  pkeys are fixed-size, so
     appending the family is unambiguous. *)
  let family = string_of_int env0.Env.family in
  let frames = ref [] in
  let poisoned = ref poisoned in
  (* Without a cache, and from the first failing declaration on, nothing
     is keyed, looked up or inserted. *)
  let keyed = ref cache in
  let chain = ref (if Option.is_none cache then "" else chain) in
  let from = ref 0 in
  let commit (u : checked) =
    env := Check.extend !env u.ck_frame;
    Gensym.restore !env.Env.gensym u.ck_gensym_end;
    if u.ck_globals_delta <> [] then
      !env.Env.global_models :=
        u.ck_globals_delta @ !(!env.Env.global_models);
    frames := u.ck_frame :: !frames
  in
  List.iter
    (fun decl ->
      let lookup =
        match !keyed with
        | None -> None
        | Some cache ->
            let pkey =
              pkey_of key_bytes ~env:!env ~indexed:(Option.is_some sink)
                ~gensym_start:(Gensym.mark !env.Env.gensym) ~source
                ~from:!from ~prev:!chain decl
            in
            let key = pkey ^ family in
            chain := pkey;
            Some (cache, key, pkey, find cache ~key ~pkey)
      in
      from := decl.Ast.loc.Loc.end_pos.Loc.offset;
      match lookup with
      | Some (_, _, _, Some u) ->
          (* replay: re-extend the environment, fast-forward the
             fresh-name supply, re-report the recorded warnings once and
             pass the recorded index entries on *)
          let diag = !(!env.Env.diag) in
          commit u;
          List.iter (fun d -> Diag.report diag d) u.ck_warnings;
          Option.iter (fun f -> List.iter f u.ck_entries) sink
      | _ -> (
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
          (* A keyed declaration's index entries go to a buffer: they
             reach the sink, and its unit, only if it checks. *)
          let entries = ref [] in
          let check () = Check.check_decl_parts !env decl in
          match
            if Option.is_some lookup && Option.is_some sink then
              Check.with_index_sink (fun e -> entries := e :: !entries) check
            else check ()
          with
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
                  keyed := None;
                  chain := "")
          | None ->
              ignore (finish ());
              Diag.ice "Unit.walk: split_spine produced a non-declaration"
          | Some (frame, _body) ->
              let env' = Check.extend !env frame in
              let warnings = finish () in
              let entries = List.rev !entries in
              Option.iter (fun f -> List.iter f entries) sink;
              Option.iter
                (fun (cache, key, pkey, _) ->
                  insert cache
                    {
                      ck_key = key;
                      ck_pkey = pkey;
                      ck_frame = frame;
                      ck_gensym_end = Gensym.mark env'.Env.gensym;
                      ck_globals_delta =
                        globals_delta ~before:globals_before
                          !(env'.Env.global_models);
                      ck_warnings = warnings;
                      ck_entries = entries;
                    })
                lookup;
              env := env';
              frames := frame :: !frames))
    decls;
  {
    w_env = !env;
    w_residual = residual;
    w_frames = !frames;
    w_chain = !chain;
    w_poisoned = !poisoned;
  }
