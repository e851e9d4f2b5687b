(** The [fgc serve] wire protocol: length-prefixed JSON frames.

    {b Framing.}  A frame is a 4-byte big-endian unsigned length [n]
    followed by [n] bytes of UTF-8 JSON.  Frames longer than the
    decoder's [max_frame] are rejected {e from the prefix alone} — the
    body is never allocated — and the error is sticky: a stream whose
    framing has been lost cannot be resynchronized, so the connection
    must be closed.

    {b Requests} are JSON objects
    [{"v": 6, "id": N, "kind": K, ...}] where [K] is one of
    [check | run | translate | stats | shutdown]; program kinds carry
    ["file"], ["source"] and the one-shot driver's flags
    (["prelude"] and ["global_models"]; a ["backend"] field may only be
    absent or ["dict"], the one backend); the workspace
    kinds ([doc_open | doc_change | doc_close | doc_diagnostics |
    hover | definition | completion]) use ["file"] as the document
    name and carry ["doc_version"] (open/change), ["source"] or an
    ["edits"] splice array (change), and a byte ["offset"]
    (hover/definition/completion); any request may set ["timeout_ms"]
    to override the server's default deadline.  Fields a request does
    not use are ignored.  Exactly one version is accepted: {!version}.

    {b Responses} are
    [{"v": 6, "id": N, "status": S, "payload": P}] where [S] is one of
    [ok | error | timeout | overload | shutting_down | protocol_error]
    and [P] is the result document as {e pre-rendered JSON text} — for
    [run] requests, byte-identical to what one-shot
    [fgc run --format=json] prints. *)

open Fg_util

(** The one request/response version spoken and accepted. *)
val version : int

val default_max_frame : int

(** Where a daemon listens and a client connects; shared by {!Server}
    and {!Client}. *)
type address = [ `Unix of string | `Tcp of string * int ]

(** {1 Framing} *)

(** The complete wire bytes of one frame. *)
val frame_of_string : string -> bytes

(** An incremental frame decoder.  Feed it arbitrary chunks, pull
    complete frames; it buffers at most [max_frame + chunk] bytes.
    One thread at a time may use a decoder. *)
type decoder

val decoder : ?max_frame:int -> unit -> decoder
val feed : decoder -> bytes -> int -> int -> unit
val feed_string : decoder -> string -> unit

(** [`Frame payload] when a complete frame is buffered; [`Await] when
    more input is needed; [`Error] (sticky) when the length prefix
    exceeds [max_frame]. *)
val next_frame : decoder -> [ `Frame of string | `Await | `Error of string ]

(** {1 Blocking I/O helpers} *)

val write_frame : Unix.file_descr -> string -> unit

(** Read one chunk from [fd] into the decoder; [false] on end of
    stream (EOF or connection reset).  The decoder reads through one
    64 KiB buffer of its own, allocated by its first [read_chunk]. *)
val read_chunk : decoder -> Unix.file_descr -> bool

(** {1 Requests} *)

type kind =
  | Check
  | Run
  | Translate
  | Stats
  | Shutdown
  | DocOpen  (** v5: open (and check) a versioned workspace document *)
  | DocChange
      (** v5: a new version of an open document, by full text or edits *)
  | DocClose  (** v5: forget an open document *)
  | DocDiagnostics  (** v5: the document's current diagnostics *)
  | Hover  (** v5: inferred type / resolved model at a byte offset *)
  | Definition  (** v5: defining occurrence of the name at an offset *)
  | Completion  (** v5: names completable at an offset *)

val kind_name : kind -> string
val kind_of_name : string -> kind option
val all_kinds : kind list

type request = {
  id : int;
  kind : kind;
  file : string;
  source : string;
  prelude : bool;
  global_models : bool;
  timeout_ms : int option;
  doc_version : int;
      (** doc_open/doc_change: the editor's version of the document
          named by [file] (v5) *)
  offset : int;  (** hover/definition/completion: byte offset (v5) *)
  edits : (int * int * string) list;
      (** doc_change: [(start, len, text)] byte-range splices applied
          in order; an explicit [source] wins over edits (v5) *)
}

(** Build a request with the wire defaults filled in. *)
val request :
  ?file:string -> ?source:string -> ?prelude:bool -> ?global_models:bool ->
  ?timeout_ms:int -> ?doc_version:int -> ?offset:int ->
  ?edits:(int * int * string) list ->
  id:int -> kind -> request

val request_to_json : request -> Json.t

type proto_error =
  | Bad_version of int option
      (** ["v"] absent or other than {!version} *)
  | Bad_request of string

val request_of_json : Json.t -> (request, proto_error) result

(** {1 Responses} *)

type status =
  | Ok_
  | Failed
  | Timeout
  | Overload
  | Shutting_down
  | Protocol_error

val status_name : status -> string
val status_of_name : string -> status option

type response = { r_id : int; r_status : status; r_payload : string }

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

(** A diagnostics-shaped error payload (the same [{"file", "ok":
    false, "diagnostics"}] shape as a failed one-shot run) with one
    [Server]-phase diagnostic carrying [code]. *)
val error_payload :
  file:string -> code:string -> ('a, Format.formatter, unit, string) format4
  -> 'a
