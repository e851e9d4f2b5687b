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

(** One checked declaration: its cache key, the keys it depends on, its
    {!Declgraph} facts, and everything needed to replay it — the
    environment delta, the translation wrapper, the fresh-name supply
    position after checking, the Global-mode overlap-set delta, and the
    warnings it emitted (replayed verbatim on a hit, so warnings appear
    exactly once per program). *)
type checked = {
  ck_key : string;  (** memory-tier key: the family-scoped {!ck_pkey} *)
  ck_pkey : string;
      (** portable key — family-free, so it addresses the persistent
          tiers (disk store, cache peers), which outlive any process *)
  ck_deps : string list;
  ck_info : Declgraph.info;
  ck_extend : Env.t -> Env.t;
  ck_wrap : triple -> triple;
  ck_gensym_end : int;
  ck_globals_delta : (string * ty list) list;
  ck_warnings : Fg_util.Diag.diagnostic list;
}

(** A bounded LRU map from unit key to checked unit. *)
type cache

val default_capacity : int

val create_cache : ?capacity:int -> unit -> cache

(** A persistent tier behind the memory map.  Keys are portable unit
    keys; values are opaque marshalled-unit blobs.  Lookups go memory →
    stores in list order; a deeper hit is written back into the tiers
    that missed, a fresh check is written through to every tier, and a
    store that throws is treated as a miss (peer failures degrade
    silently to local compilation).  Blobs only decode in the compiler
    build that produced them — a mismatched or corrupt blob counts as a
    corrupt entry and reads as a miss. *)
type store = {
  st_name : string;
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
  s_invalidations : int;
  s_size : int;
  s_capacity : int;
}

(** Counter snapshot; safe to call from any domain. *)
val stats : cache -> stats

(** [invalidate cache ~protect ~seeds] removes the entries named by
    [seeds] and everything transitively depending on them, except keys
    in [protect] (a session's live spine).  Returns the number of
    invalidations recorded: entries dropped plus the seeds themselves
    (a redefinition is observable even when nothing cached depended on
    it). *)
val invalidate : cache -> protect:string list -> seeds:string list -> int

(** Split a program into its leading declarations and residual body. *)
val split_spine : exp -> exp list * exp

(** What happened to one declaration during a walk: replayed from the
    cache, freshly checked, or failed (recovery only). *)
type decl_outcome = Dhit | Dchecked | Dfailed

type walk_result = {
  w_env : Env.t;  (** environment after the whole spine *)
  w_residual : exp;  (** first non-declaration expression *)
  w_wrap : triple -> triple;
      (** rebuilds the program's triple from the residual's, exactly as
          {!Check.check_prefix} composes declaration wrappers *)
  w_units : checked list;  (** this walk's units, in spine order *)
  w_decls : (exp * string * decl_outcome) list;
      (** one entry per walked declaration, in order: the declaration
          node, the pkey it was addressed by ("" once recovery has
          failed), and its outcome.  Unlike [w_units] this pairs back
          with the program's declarations even under recovery. *)
  w_poisoned : Sset.t;  (** recovery: names whose declarations failed *)
}

(** [walk cache ~source ~spine env ast] checks [ast]'s declaration
    spine through [cache].  [source] is the text [ast] was parsed from:
    each declaration is keyed by the bytes under its span, its file and
    the line/col of the span's ends.  [spine] holds the
    already-checked units the session's history put in scope of [env]
    (their keys seed the dependency chain; their declarations are NOT
    re-walked).  Without
    [?recover], the first failing declaration raises [Diag.Error], as
    {!Check.check_prefix} would.  With [?recover:engine], failures are
    reported to [engine] (cascade-suppressed via [?poisoned], as
    {!Check.check_prefix_recovering}) and — because a skipped
    declaration leaves every later unit's scope unknowable — all
    subsequent units bypass the cache entirely, reproducing the cold
    recovering walk byte-for-byte.  Only successfully checked units are
    ever cached. *)
val walk :
  ?recover:Fg_util.Diag.engine ->
  ?poisoned:Sset.t ->
  cache ->
  source:string ->
  spine:checked list ->
  Env.t ->
  exp ->
  walk_result
