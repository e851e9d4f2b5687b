(** A persistent, content-addressed store for compilation-unit blobs:
    the disk tier of the unit cache ([--cache-dir]).

    {b Layout.}  Under the store root, entries fan out into 256 shard
    directories named by the first two hex characters of the key; an
    entry file is the full lowercase hex of its key.  Writes go to a
    temp file in the root followed by an atomic [rename], so concurrent
    writers (parallel batch domains, several server workers, even
    separate processes sharing one root) can never produce a torn
    entry — the last rename wins and every reader sees either a whole
    blob or none.

    {b Validation.}  Every blob is stamped with the store format
    version, [Sys.ocaml_version], and the identity of the running
    compiler binary (its GNU build-id note, or a digest of the file
    when it carries none), followed by an MD5 of the body.  Unit keys (and the
    marshalled closures behind them) are only stable within one
    compiler build, so entries written by any other build — or
    truncated or corrupted by the filesystem — fail validation and are
    {e deleted and treated as a miss, never a crash}.

    {b GC.}  When [max_bytes] is set, the store evicts
    oldest-accessed-first (reads refresh an entry's timestamp) until it
    is back under the bound.  Sizes are tracked approximately per
    process; the sweep itself re-scans the tree, so cohabiting
    processes converge.

    All counters are atomics; one [t] may be shared across domains. *)

type t

(** Bump when the blob layout changes: entries from other format
    versions fail validation. *)
val format_version : int

(** [open_store ?max_bytes root] creates [root] (and parents) if
    needed.  Raises the FG1002 configuration diagnostic when [root]
    cannot be created or is not a directory. *)
val open_store : ?max_bytes:int -> string -> t

val root : t -> string

(** [get t key] — the validated body stored under [key], or [None].
    A hit refreshes the entry's access time.  Invalid entries count as
    corrupt, are unlinked, and read as a miss. *)
val get : t -> string -> string option

(** [put t key body] — persist [body] under [key] (temp file + atomic
    rename; a pre-existing entry is left alone).  Failures degrade
    silently: a full or read-only disk must not break compilation.
    Triggers a GC sweep when the store exceeds [max_bytes]. *)
val put : t -> string -> string -> unit

(** Evict oldest-accessed entries until the store fits [max_bytes]
    (no-op bound-wise when unbounded; always re-syncs the size
    accounting with the filesystem). *)
val gc : t -> unit

(** Where [key]'s entry lives — tests use this to corrupt entries and
    to back-date access times. *)
val entry_path : t -> string -> string

(** [elf_build_id path] — the hex of the GNU build-id note
    (NT_GNU_BUILD_ID) of the ELF file at [path]; [None] when the file
    is unreadable, not ELF, malformed, or has no such note. *)
val elf_build_id : string -> string option

(** [encode_blob body] / [decode_blob s] — the stamped on-disk framing
    ([decode_blob] returns [None] unless the stamp matches this build
    and the body digest checks out).  Exposed for the peer tier and
    tests. *)
val encode_blob : string -> string

val decode_blob : string -> string option

type stats = {
  d_hits : int;
  d_misses : int;
  d_evictions : int;
  d_corrupt : int;
  d_entries : int;  (** entries this process believes are on disk *)
  d_bytes : int;  (** approximate store size in bytes *)
}

(** Counter snapshot; safe from any domain. *)
val stats : t -> stats
