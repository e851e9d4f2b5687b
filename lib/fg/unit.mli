(** Declaration-granular compilation units.

    {!Session} (and through it the server and the REPL) used to re-check
    a program's whole declaration spine on every request past the cached
    prelude.  This module splits any program into its declaration spine
    and checks each declaration at most once per content: a unit is
    addressed by a digest of the declaration's source text chained
    through the keys of the units it depends on (a Merkle-style key, so
    one hash comparison covers the whole transitive history), together
    with the resolution mode, the escape-check flag, the environment
    family, and the fresh-name supply position.  Checking a spine against a warm
    cache replays recorded environment deltas and warnings instead of
    re-running the checker, and is byte-identical to a cold check —
    types, elaborated terms, System F translations, diagnostics, and
    evaluation results all come out exactly the same.

    Caches are owned by a single domain (each server worker and each
    batch domain builds its own); the counters are atomics so another
    domain may read {!stats} concurrently. *)

open Ast
module F := Fg_systemf.Ast
module Sset := Fg_util.Names.Sset

type triple = ty * exp * F.exp

(** One checked declaration: its cache keys, its {!Declgraph} facts,
    and everything needed to replay it — its frame (the environment
    delta and the translation wrapper, as data), the fresh-name supply
    position after checking, the Global-mode overlap-set delta, and the
    warnings it emitted (replayed verbatim on a hit, so warnings appear
    exactly once per program).  A unit holds
    no functions, so it marshals as plain data. *)
type checked = {
  ck_key : string;  (** memory-tier key: the family-scoped {!ck_pkey} *)
  ck_pkey : string;
      (** portable key — family-free, so it addresses the persistent
          tiers (the disk store), which outlive any process *)
  ck_info : Declgraph.info;
  ck_frame : Check.frame;
  ck_gensym_end : int;
  ck_globals_delta : (string * ty list) list;
  ck_warnings : Fg_util.Diag.diagnostic list;
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

(** Split a program into its leading declarations and residual body. *)
val split_spine : exp -> exp list * exp

(** What happened to one declaration during a walk: replayed from the
    cache, freshly checked, or failed (recovery only). *)
type decl_outcome = Dhit | Dchecked | Dfailed

type walk_result = {
  w_env : Env.t;  (** environment after the whole spine *)
  w_residual : exp;  (** first non-declaration expression *)
  w_frames : Check.frame list;
      (** the declarations' frames, innermost first: {!unwind}
          rebuilds the program's triple from the residual's *)
  w_units : checked list;
      (** this walk's units, in spine order: one per declaration
          addressed by key (none without a cache, and none from the
          first failing declaration on) *)
  w_decls : (exp * string * decl_outcome) list;
      (** one entry per walked declaration, in order: the declaration
          node, the pkey it was addressed by ("" without a cache and
          once recovery has failed), and its outcome.  Unlike [w_units]
          this pairs back with the program's declarations even under
          recovery. *)
  w_poisoned : Sset.t;  (** recovery: names whose declarations failed *)
}

(** [unwind frames res] wraps [res] in each frame of [frames]
    ({!Check.wrap}), innermost first. *)
val unwind : Check.frame list -> triple -> triple

(** The checked units a walk starts from (a session's prelude and
    every {!Session.extend} after it), their keys, and the dependency
    analysis state ({!Declgraph.t}) after the last of them, so a walk
    analyses only its own program's declarations. *)
type spine

(** No units, analysed under [env]'s resolution mode. *)
val empty_spine : Env.t -> spine

(** [extend_spine sp units] — [sp] followed by [units] (in declaration
    order), with the analysis extended by the same units.  The only
    way to add units to a spine, so its units and its analysis always
    agree. *)
val extend_spine : spine -> checked list -> spine

(** [adopt cache sp env] — [sp] with its units re-keyed under [env]'s
    family, each inserted into [cache]'s memory tier in declaration
    order: the state checking them under [env] would have left.  This
    is how a spine checked in another process (a session image) joins
    this one. *)
val adopt : cache -> spine -> Env.t -> spine

(** [walk cache ~source ~spine env ast] checks [ast]'s declaration
    spine through [cache].  [source] is the text [ast] was parsed from:
    each declaration is keyed by the bytes under its span, its file and
    the line/col of the span's ends.  [spine] holds the
    already-checked units the session's history put in scope of [env]
    (their keys seed the dependency chain; their declarations are NOT
    re-walked or re-analysed); it must have been built under [env]'s
    resolution mode.  Without
    [?recover], the first failing declaration raises [Diag.Error].
    With [?recover:engine], a failing declaration is reported to
    [engine] (cascade-suppressed via [?poisoned], see
    {!Check.is_cascade}), its bindings are poisoned instead of made,
    and — because a skipped declaration leaves every later unit's
    scope unknowable — all
    subsequent units bypass the cache entirely, reproducing the cold
    recovering walk byte-for-byte.  Only successfully checked units are
    ever cached.

    With [None] in place of [Some cache], every declaration is checked
    as if the walk had already failed: no dependency analysis, no
    keys, no cache traffic, no units ([w_units] is empty and every
    [w_decls] key is [""]).  Its environment, frames, fresh names,
    warnings and diagnostics are those of a walk through a cold
    cache. *)
val walk :
  ?recover:Fg_util.Diag.engine ->
  ?poisoned:Sset.t ->
  cache option ->
  source:string ->
  spine:spine ->
  Env.t ->
  exp ->
  walk_result
