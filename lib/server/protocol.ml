(** The fgc wire protocol (see the interface): length-prefixed JSON
    frames, versioned requests, stable response statuses.

    A frame is a 4-byte big-endian unsigned length followed by that
    many bytes of UTF-8 JSON.  The decoder is incremental — feed it
    whatever the socket produced, pull zero or more complete frames —
    and never allocates a body before the declared length has passed
    the [max_frame] bound, so a hostile prefix cannot force a huge
    allocation. *)

open Fg_util

(* Version 2 added the optional request field ["backend"]; dictionary
   passing is now the only backend, so it may only be absent or
   ["dict"].  Version 5 added the workspace
   language-service kinds — [doc_open] / [doc_change] / [doc_close] /
   [doc_diagnostics] / [hover] / [definition] / [completion] — with
   their ["doc_version"] / ["edits"] / ["offset"] fields ([file]
   doubles as the document name).  Version 6 added an optional request
   field that is no longer read; the decoder ignores every field it
   does not read, so a frame that still carries it decodes as if it
   were absent.  The two fuzzing kinds of earlier versions are gone: a
   v6 frame naming either is an unknown kind.  The only client is
   {!Client}, which always sends [version], so a frame with any other
   version is refused. *)
let version = 6
let default_max_frame = 4 * 1024 * 1024

(* Where a daemon listens and a client connects; shared by {!Server}
   and {!Client}. *)
type address = [ `Unix of string | `Tcp of string * int ]

(* ---------------------------------------------------------------- *)
(* Framing                                                           *)

let frame_of_string payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xFF);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xFF);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 3 (n land 0xFF);
  Bytes.blit_string payload 0 b 4 n;
  b

type decoder = {
  max_frame : int;
  pending : Buffer.t;  (** raw bytes not yet consumed by a frame *)
  mutable dead : string option;  (** sticky framing error *)
  mutable chunk : Bytes.t;
      (** [read_chunk]'s buffer; empty until the first read, so a
          decoder fed only from memory never allocates it *)
}

let decoder ?(max_frame = default_max_frame) () =
  { max_frame; pending = Buffer.create 4096; dead = None; chunk = Bytes.empty }

let feed d s off len =
  if d.dead = None then Buffer.add_subbytes d.pending s off len

let feed_string d s =
  if d.dead = None then Buffer.add_string d.pending s

(* Drop the first [n] consumed bytes of the pending buffer. *)
let consume d n =
  let rest = Buffer.sub d.pending n (Buffer.length d.pending - n) in
  Buffer.clear d.pending;
  Buffer.add_string d.pending rest

let next_frame d =
  match d.dead with
  | Some msg -> `Error msg
  | None ->
      let have = Buffer.length d.pending in
      if have < 4 then `Await
      else
        let byte i = Char.code (Buffer.nth d.pending i) in
        let n =
          (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
        in
        if n > d.max_frame then begin
          let msg =
            Printf.sprintf
              "frame length %d exceeds the %d-byte limit" n d.max_frame
          in
          d.dead <- Some msg;
          `Error msg
        end
        else if have < 4 + n then `Await
        else begin
          let payload = Buffer.sub d.pending 4 n in
          consume d (4 + n);
          `Frame payload
        end

(* ---------------------------------------------------------------- *)
(* Blocking I/O helpers                                              *)

let really_write fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_frame fd payload = really_write fd (frame_of_string payload)

(* One buffer per decoder, reused by every read: a 64 KiB block is too
   large for the minor heap, so each fresh one would be a major-heap
   allocation. *)
let read_chunk d fd =
  if Bytes.length d.chunk = 0 then d.chunk <- Bytes.create 65536;
  match Unix.read fd d.chunk 0 (Bytes.length d.chunk) with
  | 0 -> false
  | n ->
      feed d d.chunk 0 n;
      true
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false

(* ---------------------------------------------------------------- *)
(* Requests                                                          *)

type kind =
  | Check
  | Run
  | Translate
  | Stats
  | Shutdown
  | DocOpen
  | DocChange
  | DocClose
  | DocDiagnostics
  | Hover
  | Definition
  | Completion

let kind_name = function
  | Check -> "check"
  | Run -> "run"
  | Translate -> "translate"
  | Stats -> "stats"
  | Shutdown -> "shutdown"
  | DocOpen -> "doc_open"
  | DocChange -> "doc_change"
  | DocClose -> "doc_close"
  | DocDiagnostics -> "doc_diagnostics"
  | Hover -> "hover"
  | Definition -> "definition"
  | Completion -> "completion"

let kind_of_name = function
  | "check" -> Some Check
  | "run" -> Some Run
  | "translate" -> Some Translate
  | "stats" -> Some Stats
  | "shutdown" -> Some Shutdown
  | "doc_open" -> Some DocOpen
  | "doc_change" -> Some DocChange
  | "doc_close" -> Some DocClose
  | "doc_diagnostics" -> Some DocDiagnostics
  | "hover" -> Some Hover
  | "definition" -> Some Definition
  | "completion" -> Some Completion
  | _ -> None

let all_kinds =
  [ Check; Run; Translate; Stats; Shutdown; DocOpen; DocChange; DocClose;
    DocDiagnostics; Hover; Definition; Completion ]

type request = {
  id : int;
  kind : kind;
  file : string;
  source : string;
  prelude : bool;
  global_models : bool;
  timeout_ms : int option;  (** overrides the server default deadline *)
  doc_version : int;
      (** doc_open/doc_change: the editor's version of the document
          named by [file] (v5) *)
  offset : int;  (** hover/definition/completion: byte offset (v5) *)
  edits : (int * int * string) list;
      (** doc_change: [(start, len, text)] byte-range splices applied
          in order; an explicit [source] wins over edits (v5) *)
}

let request ?(file = "<request>") ?(source = "") ?(prelude = false)
    ?(global_models = false) ?timeout_ms ?(doc_version = 0) ?(offset = 0)
    ?(edits = []) ~id kind =
  { id; kind; file; source; prelude; global_models; timeout_ms; doc_version;
    offset; edits }

let request_to_json r =
  Json.Obj
    ([ ("v", Json.Int version);
       ("id", Json.Int r.id);
       ("kind", Json.Str (kind_name r.kind)) ]
    @ (if r.file = "<request>" then [] else [ ("file", Json.Str r.file) ])
    @ (if r.source = "" then [] else [ ("source", Json.Str r.source) ])
    @ (if r.prelude then [ ("prelude", Json.Bool true) ] else [])
    @ (if r.global_models then [ ("global_models", Json.Bool true) ] else [])
    @ (match r.timeout_ms with
      | Some t -> [ ("timeout_ms", Json.Int t) ]
      | None -> [])
    @
    match r.kind with
    | DocOpen | DocChange ->
        [ ("doc_version", Json.Int r.doc_version) ]
        @ (match r.edits with
          | [] -> []
          | es ->
              [ ( "edits",
                  Json.List
                    (List.map
                       (fun (s, l, txt) ->
                         Json.Obj
                           [ ("start", Json.Int s); ("len", Json.Int l);
                             ("text", Json.Str txt) ])
                       es) ) ])
    | Hover | Definition | Completion -> [ ("offset", Json.Int r.offset) ]
    | _ -> [])

type proto_error =
  | Bad_version of int option
      (** absent or other than [version] *)
  | Bad_request of string  (** shape violation; the message says what *)

let request_of_json j =
  match Json.int_field "v" j with
  | None -> Error (Bad_version None)
  | Some v when v <> version -> Error (Bad_version (Some v))
  | Some _ -> (
      match Json.str_field "kind" j with
      | None -> Error (Bad_request "missing request field 'kind'")
      | Some kname -> (
          match kind_of_name kname with
          | None ->
              Error (Bad_request (Printf.sprintf "unknown kind %S" kname))
          | Some kind -> (
              match Json.int_field "id" j with
              | None -> Error (Bad_request "missing request field 'id'")
              | Some id ->
              let str k d = Option.value ~default:d (Json.str_field k j) in
              let bool k = Json.bool_field k j = Some true in
              let needs_source =
                match kind with
                | Check | Run | Translate | DocOpen -> true
                | Stats | Shutdown | DocChange | DocClose
                | DocDiagnostics | Hover | Definition | Completion ->
                    false
              in
              let needs_offset =
                match kind with
                | Hover | Definition | Completion -> true
                | _ -> false
              in
              let edits =
                match Json.mem "edits" j with
                | Some (Json.List l) ->
                    List.filter_map
                      (fun ej ->
                        match
                          ( Json.int_field "start" ej,
                            Json.int_field "len" ej,
                            Json.str_field "text" ej )
                        with
                        | Some s, Some len, Some txt -> Some (s, len, txt)
                        | _ -> None)
                      l
                | _ -> []
              in
              match Json.str_field "backend" j with
              | Some s when s <> "dict" ->
                  Error (Bad_request (Printf.sprintf "unknown backend %S" s))
              | _ ->
              if needs_source && Json.str_field "source" j = None then
                Error
                  (Bad_request
                     (Printf.sprintf "kind %S requires a 'source' field"
                        kname))
              else if needs_offset && Json.int_field "offset" j = None then
                Error
                  (Bad_request
                     (Printf.sprintf "kind %S requires an 'offset' field"
                        kname))
              else if
                kind = DocChange
                && Json.str_field "source" j = None
                && edits = []
              then
                Error
                  (Bad_request
                     "kind \"doc_change\" requires a 'source' field or a \
                      non-empty 'edits' array")
              else
                Ok
                  {
                    id;
                    kind;
                    file = str "file" "<request>";
                    source = str "source" "";
                    prelude = bool "prelude";
                    global_models = bool "global_models";
                    timeout_ms = Json.int_field "timeout_ms" j;
                    doc_version =
                      Option.value ~default:0
                        (Json.int_field "doc_version" j);
                    offset =
                      Option.value ~default:0 (Json.int_field "offset" j);
                    edits;
                  })))

(* ---------------------------------------------------------------- *)
(* Responses                                                         *)

type status =
  | Ok_  (** the request ran; the payload is its result *)
  | Failed  (** the request ran and the payload reports diagnostics *)
  | Timeout  (** the deadline passed before a result was ready *)
  | Overload  (** the bounded queue was full; retry later *)
  | Shutting_down  (** the daemon is draining; no new work accepted *)
  | Protocol_error  (** the frame or request itself was malformed *)

let status_name = function
  | Ok_ -> "ok"
  | Failed -> "error"
  | Timeout -> "timeout"
  | Overload -> "overload"
  | Shutting_down -> "shutting_down"
  | Protocol_error -> "protocol_error"

let status_of_name = function
  | "ok" -> Some Ok_
  | "error" -> Some Failed
  | "timeout" -> Some Timeout
  | "overload" -> Some Overload
  | "shutting_down" -> Some Shutting_down
  | "protocol_error" -> Some Protocol_error
  | _ -> None

type response = {
  r_id : int;  (** echoes the request id; 0 for frame-level errors *)
  r_status : status;
  r_payload : string;
      (** the result document, pre-rendered JSON text — embedding the
          rendering (rather than the tree) is what makes served [run]
          payloads byte-identical to one-shot [fgc run] output *)
}

let response_to_json r =
  Json.Obj
    [
      ("v", Json.Int version);
      ("id", Json.Int r.r_id);
      ("status", Json.Str (status_name r.r_status));
      ("payload", Json.Str r.r_payload);
    ]

let response_of_json j =
  match
    ( Json.int_field "v" j,
      Json.int_field "id" j,
      Json.str_field "status" j,
      Json.str_field "payload" j )
  with
  | Some v, _, _, _ when v <> version ->
      Error (Printf.sprintf "response version %d (want %d)" v version)
  | Some _, Some r_id, Some sname, Some r_payload -> (
      match status_of_name sname with
      | Some r_status -> Ok { r_id; r_status; r_payload }
      | None -> Error (Printf.sprintf "unknown response status %S" sname))
  | _ -> Error "response missing one of v/id/status/payload"

(* A diagnostics-shaped error payload (same JSON shape as a failed
   one-shot run), used for timeout / overload / protocol responses. *)
let error_payload ~file ~code fmt =
  Fmt.kstr
    (fun message ->
      Json.to_string
        (Fg_core.Jsonview.json_of_failure ~file
           (Diag.make ~code Diag.Server message)))
    fmt
