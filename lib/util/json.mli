(** A minimal JSON tree, printer and reader.  The printer backs the
    driver's machine-readable output ([fgc --format=json], [--stats]);
    the reader backs the [fgc serve] wire protocol, whose frames are
    JSON documents that must survive an exact round-trip (strings
    containing newlines, tabs and other control characters included:
    the printer escapes everything below U+0020 and the reader decodes
    every escape the printer can emit, plus the rest of RFC 8259). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Compact rendering (no insignificant whitespace beyond single
    spaces); strings are escaped per RFC 8259. *)
val to_string : t -> string

(** Recursively sort every object's fields by key (stable, so
    duplicate keys keep their relative order).  Applied to stats and
    profile output so equal payloads render byte-identically for CI
    diffing; deliberately {e not} applied to run reports, whose field
    order is pinned by goldens. *)
val sort_keys : t -> t

(** Parse one JSON document; the whole input must be consumed (trailing
    whitespace allowed).  Nesting is bounded (255 levels) so malformed
    wire frames cannot exhaust the stack; numbers that fit an OCaml
    [int] parse as [Int], everything else as [Float]; [\uXXXX] escapes
    (surrogate pairs included) decode to UTF-8.  Errors report the byte
    offset. *)
val of_string : string -> (t, string) result

(** {1 Accessors} — [None] when the value is not an [Obj], the key is
    absent, or the field has a different shape. *)

val mem : string -> t -> t option
val str_field : string -> t -> string option
val int_field : string -> t -> int option
val bool_field : string -> t -> bool option
