(** Diagnostics: located errors and warnings produced by every phase of
    the pipeline.

    A {!diagnostic} carries a stable error code ([FG0xxx]), a severity,
    a source span, a phase tag, a rendered message and zero or more
    attached notes (hints, candidate lists, suggestions).  Phases that
    cannot recover raise {!Error}; recovering drivers accumulate
    diagnostics into an {!engine} and keep going, so a single
    invocation can report many independent errors.  Internal invariant
    violations use {!ice} ("internal compiler error") so that bugs in
    the implementation are distinguishable from bugs in the input
    program. *)

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

let phase_name = function
  | Lexer -> "lex error"
  | Parser -> "parse error"
  | Wf -> "ill-formed"
  | Typecheck -> "type error"
  | Resolve -> "resolution error"
  | Translate -> "translation error"
  | Eval -> "runtime error"
  | Server -> "server error"
  | Config -> "configuration error"
  | Internal -> "internal error"

(* Every phase has a generic fallback code; specific failure shapes get
   their own code at the raise site.  The registry lives in
   docs/LANGUAGE.md ("Diagnostics") and programs/errors/ pins the codes
   in CI — pick a fresh number rather than repurposing an old one. *)
let default_code = function
  | Lexer -> "FG0001"
  | Parser -> "FG0101"
  | Wf -> "FG0201"
  | Typecheck -> "FG0301"
  | Resolve -> "FG0401"
  | Translate -> "FG0501"
  | Eval -> "FG0601"
  | Server -> "FG0801"
  | Config -> "FG1001"
  | Internal -> "FG0901"

type severity = Err | Warn

let severity_name = function Err -> "error" | Warn -> "warning"

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

let note ?(loc = Loc.dummy) fmt =
  Fmt.kstr (fun n_msg -> { n_loc = loc; n_msg }) fmt

let suggest name = note "did you mean '%s'?" name

(* Warnings render as "warning[FG0xxx]"; errors keep the phase label
   ("type error[FG0xxx]") which is more informative than a bare
   "error". *)
let label d =
  match d.severity with Err -> phase_name d.phase | Warn -> "warning"

let pp_note ppf n =
  if Loc.is_dummy n.n_loc then Fmt.pf ppf "@\n  note: %s" n.n_msg
  else Fmt.pf ppf "@\n  note (%a): %s" Loc.pp n.n_loc n.n_msg

let pp ppf d =
  (* Dummy spans come from synthesized nodes; printing "<none>:1:1"
     would point nowhere, so the location is suppressed. *)
  if Loc.is_dummy d.loc then
    Fmt.pf ppf "%s[%s]: %s" (label d) d.code d.message
  else Fmt.pf ppf "%a: %s[%s]: %s" Loc.pp d.loc (label d) d.code d.message;
  List.iter (pp_note ppf) d.notes

let to_string d = Fmt.str "%a" pp d

let json_of_pos (p : Loc.pos) =
  Json.Obj [ ("line", Json.Int p.line); ("col", Json.Int p.col) ]

let json_of_span (s : Loc.t) =
  if Loc.is_dummy s then Json.Null
  else
    Json.Obj
      [
        ("file", Json.Str s.file);
        ("start", json_of_pos s.start_pos);
        ("end", json_of_pos s.end_pos);
      ]

let to_json d =
  Json.Obj
    [
      ("code", Json.Str d.code);
      ("severity", Json.Str (severity_name d.severity));
      ("phase", Json.Str (phase_name d.phase));
      ("message", Json.Str d.message);
      ("span", json_of_span d.loc);
      ( "notes",
        Json.List
          (List.map
             (fun n ->
               Json.Obj
                 [
                   ("message", Json.Str n.n_msg); ("span", json_of_span n.n_loc);
                 ])
             d.notes) );
    ]

let make ?code ?(notes = []) ?(loc = Loc.dummy) ?(severity = Err) phase message
    =
  let code = match code with Some c -> c | None -> default_code phase in
  (* Every diagnostic construction is a coverage point: the guided
     fuzzer hunts for inputs that reach codes it has not seen. *)
  Coverage.hit_key ("diag." ^ code);
  { code; severity; phase; loc; message; notes }

let error ?code ?notes ?loc phase fmt =
  Fmt.kstr
    (fun message -> raise (Error (make ?code ?notes ?loc phase message)))
    fmt

let lex_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Lexer fmt
let parse_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Parser fmt
let wf_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Wf fmt
let type_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Typecheck fmt
let resolve_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Resolve fmt

let translate_error ?code ?notes ?loc fmt =
  error ?code ?notes ?loc Translate fmt

let eval_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Eval fmt
let config_error ?code ?notes ?loc fmt = error ?code ?notes ?loc Config fmt

(** Internal invariant violation; not attributable to the input program. *)
let ice fmt = error Internal fmt

(** [guard cond phase fmt ...] raises unless [cond] holds. *)
let guard cond ?loc phase fmt =
  if cond then Fmt.kstr (fun _ -> ()) fmt else error ?loc phase fmt

(** Run [f ()] and capture any diagnostic as [Error d]. *)
let protect f = try Ok (f ()) with Error d -> Stdlib.Error d

(* ------------------------------------------------------------------ *)
(* Accumulating engine                                                 *)

type engine = { mutable rev_diags : diagnostic list; mutable errors : int }

let engine () = { rev_diags = []; errors = 0 }

let report eng d =
  eng.rev_diags <- d :: eng.rev_diags;
  if d.severity = Err then eng.errors <- eng.errors + 1

let warn eng ?code ?notes ?loc phase fmt =
  Fmt.kstr
    (fun message ->
      report eng (make ?code ?notes ?loc ~severity:Warn phase message))
    fmt

let diagnostics eng = List.rev eng.rev_diags
let has_errors eng = eng.errors > 0

(** Run [f ()]; a raised diagnostic is reported to [eng] and the result
    becomes [None]. *)
let capture eng f =
  try Some (f ()) with Error d -> report eng d; None
