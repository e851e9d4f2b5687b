(** Declaration-granular compilation units.

    {!Session} (and through it the server, the REPL and the workspace)
    splits every program into its declaration spine and checks each
    declaration at most once per lexical prefix: a unit is addressed by
    a digest of the source bytes from the end of the previous
    declaration to the end of its own, chained through the previous
    unit's key (a Merkle-style key, so one hash comparison covers the
    whole text before the declaration, back through the session's
    prelude and extensions), together with the resolution mode, the
    escape-check flag, whether an index sink is recording, the
    environment family, and the fresh-name supply position.  FG's
    declarations are lexically scoped, so that prefix fixes what a
    declaration means.  Checking a spine against a warm cache replays
    recorded environment deltas, warnings and position-index entries
    instead of re-running the checker, and is byte-identical to a cold
    check — types, elaborated terms, System F translations,
    diagnostics, index entries and evaluation results all come out
    exactly the same.

    Caches are owned by a single domain (each server worker and each
    batch domain builds its own); the counters are atomics so another
    domain may read {!stats} concurrently. *)

open Ast
module F := Fg_systemf.Ast
module Sset := Fg_util.Names.Sset

type triple = ty * exp * F.exp

(** One checked declaration: its cache keys and everything needed to
    replay it — its frame (the environment delta and the translation
    wrapper, as data), the fresh-name supply position after checking,
    the Global-mode overlap-set delta, the warnings it emitted (replayed
    verbatim on a hit, so warnings appear exactly once per program) and
    the position-index entries its check recorded.  A unit holds no
    functions, so it marshals as plain data. *)
type checked = {
  ck_key : string;  (** memory-tier key: the family-scoped {!ck_pkey} *)
  ck_pkey : string;
      (** portable key — family-free, so it addresses the persistent
          tiers (the disk store), which outlive any process *)
  ck_frame : Check.frame;
  ck_gensym_end : int;
  ck_globals_delta : (string * ty list) list;
  ck_warnings : Fg_util.Diag.diagnostic list;
  ck_entries : Check.index_entry list;
      (** what the check recorded into an index sink
          ({!Check.with_index_sink}), in recording order; empty for a
          unit checked with no sink installed *)
}

(** A bounded LRU map from unit key to checked unit.  Past capacity,
    an insert evicts the least recently inserted or replayed unit, in
    O(1). *)
type cache

(** [capacity] defaults to 512 units. *)
val create_cache : ?capacity:int -> unit -> cache

(** A persistent tier behind the memory map.  Keys are portable unit
    keys; values are opaque marshalled-unit blobs.  Lookups go memory →
    stores in list order and take the first blob that decodes; a fresh
    check is written through to every store.  A store that throws is
    treated as a miss on lookup and skipped on write-through, so the
    unit is compiled locally.  Blobs are plain marshalled data with no
    code pointers; a store must only hand back blobs written by the
    same compiler build (the disk store checks a build-id stamp).  A
    corrupt blob counts as a corrupt entry and reads as a miss. *)
type store = {
  st_name : string;
      (** read by nothing: it keeps [benchspine/layers.ml]'s
          [{ base with st_get; st_put }] a partial update, which a
          two-field record would make warning 23, an error under the
          dev profile *)
  st_get : string -> string option;
  st_put : string -> string -> unit;
}

(** Attach the persistent tiers consulted after the memory map. *)
val set_stores : cache -> store list -> unit

(** The on-disk store ({!Diskcache}) as a tier. *)
val disk_store : Diskcache.t -> store

type stats = {
  s_hits : int;
  s_misses : int;
  s_evictions : int;
  s_size : int;
  s_capacity : int;
}

(** Counter snapshot; safe to call from any domain. *)
val stats : cache -> stats

type walk_result = {
  w_env : Env.t;  (** environment after the whole spine *)
  w_residual : exp;  (** first non-declaration expression *)
  w_frames : Check.frame list;
      (** the declarations' frames, innermost first: {!unwind}
          rebuilds the program's triple from the residual's *)
  w_chain : string;
      (** the pkey a walk of the declarations after these chains to:
          the last declaration's ([chain] when there are none, and [""]
          for a walk without a cache or one that recovered from a
          failure) *)
  w_poisoned : Sset.t;  (** recovery: names whose declarations failed *)
}

(** [unwind frames res] wraps [res] in each frame of [frames]
    ({!Check.wrap}), innermost first. *)
val unwind : Check.frame list -> triple -> triple

(** [walk cache ~source ~chain env ast] checks [ast]'s declaration
    spine through [cache].  [source] is the text [ast] was parsed from:
    each declaration is keyed by its file and the bytes of [source]
    from the end of the previous declaration (or the start of
    [source]) to the end of its own span, chained through the previous
    declaration's pkey; the first declaration chains to [chain], the
    [w_chain] of the walk that built [env] (a session's prelude and
    each {!Session.extend}), or [""].  A declaration therefore replays
    exactly when the source up to its end, the walks before it and the
    configuration are unchanged.

    With an index sink installed ({!Check.with_index_sink}), the walk
    is an indexed one: its keys differ from an unindexed walk's, so it
    only ever replays units that recorded their entries, and it passes
    to the sink exactly what a cold check would record — each replayed
    unit's entries, each checked declaration's entries, but none from
    a keyed declaration that fails.

    Without [?recover], the first failing declaration raises
    [Diag.Error].  With [?recover:engine], a failing declaration is
    reported to [engine] (cascade-suppressed via [?poisoned], see
    {!Check.is_cascade}), its bindings are poisoned instead of made,
    and — because a skipped declaration leaves every later unit's
    scope unknowable — all subsequent units bypass the cache entirely,
    reproducing the cold recovering walk byte-for-byte.  Only
    successfully checked units are ever cached.

    With [None] in place of [Some cache], every declaration is checked
    as if the walk had already failed: no keys, no cache traffic, and
    index entries go straight to the sink.  Its environment, frames,
    fresh names, warnings and diagnostics are those of a walk through a
    cold cache. *)
val walk :
  ?recover:Fg_util.Diag.engine ->
  ?poisoned:Sset.t ->
  cache option ->
  source:string ->
  chain:string ->
  Env.t ->
  exp ->
  walk_result
