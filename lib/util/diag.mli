(** Diagnostics: located errors and warnings for every pipeline phase.
    All user-facing failures are a {!diagnostic} carrying a stable
    [FG0xxx] code, a severity, a span, a phase tag, a message and
    attached notes.  Abort paths raise {!Error}; recovering drivers
    accumulate diagnostics into an {!engine}.  Internal invariant
    violations use {!ice}. *)

type phase =
  | Lexer
  | Parser
  | Wf  (** well-formedness of types, concepts and models *)
  | Typecheck
  | Resolve  (** model lookup / where-clause satisfaction *)
  | Translate
  | Eval
  | Server  (** the [fgc serve] daemon: timeouts, overload, protocol *)
  | Config  (** driver configuration: flags, cache directories, addresses *)
  | Internal

val phase_name : phase -> string

(** The generic fallback code of a phase (specific failure shapes carry
    their own code; see docs/LANGUAGE.md for the registry). *)
val default_code : phase -> string

type severity = Err | Warn

val severity_name : severity -> string

(** A note attached to a diagnostic: a hint, a candidate list, a
    nearest-name suggestion.  [n_loc] is {!Loc.dummy} when the note has
    no useful span of its own. *)
type note = { n_loc : Loc.t; n_msg : string }

type diagnostic = {
  code : string;  (** stable [FG0xxx] code *)
  severity : severity;
  phase : phase;
  loc : Loc.t;
  message : string;
  notes : note list;
}

exception Error of diagnostic

(** Build a note from a format string. *)
val note : ?loc:Loc.t -> ('a, Format.formatter, unit, note) format4 -> 'a

(** A "did you mean '...'?" note. *)
val suggest : string -> note

val pp : diagnostic Fmt.t
val to_string : diagnostic -> string

(** JSON rendering: [{"code", "severity", "phase", "message", "span",
    "notes"}] where spans of synthesized nodes ({!Loc.is_dummy}) are
    [null]. *)
val to_json : diagnostic -> Json.t

val json_of_span : Loc.t -> Json.t

(** Build a diagnostic without raising. *)
val make :
  ?code:string ->
  ?notes:note list ->
  ?loc:Loc.t ->
  ?severity:severity ->
  phase ->
  string ->
  diagnostic

(** Raise a located diagnostic with a format string. *)
val error :
  ?code:string ->
  ?notes:note list ->
  ?loc:Loc.t ->
  phase ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a

val lex_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val parse_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val wf_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val type_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val resolve_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val translate_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val eval_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

val config_error :
  ?code:string -> ?notes:note list -> ?loc:Loc.t ->
  ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Internal invariant violation; not attributable to the program. *)
val ice : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [guard cond phase fmt ...] raises unless [cond] holds. *)
val guard : bool -> ?loc:Loc.t -> phase -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Run and capture any diagnostic as [Error]. *)
val protect : (unit -> 'a) -> ('a, diagnostic) result

(** An accumulating sink of diagnostics.  Mutable and single-threaded:
    each session (and each domain of a batch) owns its own engine. *)
type engine

val engine : unit -> engine

(** Record a diagnostic and keep going. *)
val report : engine -> diagnostic -> unit

(** Record a warning built from a format string. *)
val warn :
  engine ->
  ?code:string ->
  ?notes:note list ->
  ?loc:Loc.t ->
  phase ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a

(** Accumulated diagnostics, in report order. *)
val diagnostics : engine -> diagnostic list

val has_errors : engine -> bool

(** Run [f ()]; a raised diagnostic is reported to the engine and the
    result becomes [None]. *)
val capture : engine -> (unit -> 'a) -> 'a option
