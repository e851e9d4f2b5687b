(** Client side of the [fgc serve] wire protocol: blocking
    single-request calls and a pipelined batch mode that streams many
    requests through one connection with a bounded in-flight window,
    out-of-order response matching by id, bounded overload retries,
    and request-order results. *)

type conn

exception Client_error of string

(** All failures (connect, framing, bad responses) raise
    {!Client_error} with a human-readable message. *)

(** [rcv_timeout] (seconds) bounds every blocking read on the
    connection ([SO_RCVTIMEO]), so a hung server surfaces as a
    {!Client_error} instead of a stuck caller.  A failed connect closes
    its socket before raising. *)
val connect :
  ?max_frame:int -> ?rcv_timeout:float -> Protocol.address -> conn

val close : conn -> unit

(** Send one request (no wait). *)
val send : conn -> Protocol.request -> unit

(** Send one raw payload as a frame / raw bytes on the wire — for
    tests and the CI probe that deliberately violate the protocol. *)
val send_raw_frame : conn -> string -> unit

val send_raw_bytes : conn -> string -> unit

(** Block until the next complete response frame. *)
val read_response : conn -> Protocol.response

(** Send, then read the matching response (checks the id echo). *)
val request : conn -> Protocol.request -> Protocol.response

val default_window : int

(** [backoff_ms rng ~attempt] — the pause (in milliseconds) before
    overload retry number [attempt] (0-based): exponential from 2ms,
    capped at 200ms, jittered uniformly into [delay/2, delay].  Pure
    in the generator, so a seed replays the exact delay sequence. *)
val backoff_ms : Fg_util.Prng.t -> attempt:int -> int * Fg_util.Prng.t

(** [batch c reqs] — pipeline every request through [c] with at most
    [window] in flight; overloaded requests are retried up to
    [overload_retries] times with {!backoff_ms} pauses (jitter drawn
    from a generator seeded by [backoff_seed], so tests are
    deterministic).  A request's accumulated backoff never exceeds its
    own [timeout_ms], if set — past that the overload is returned
    as-is.  Results come back in request order carrying the caller's
    original ids. *)
val batch :
  ?window:int -> ?overload_retries:int -> ?backoff_seed:int -> conn ->
  Protocol.request list -> Protocol.response list

val stats : conn -> Protocol.response
val shutdown : conn -> Protocol.response

val run_file :
  conn -> ?timeout_ms:int -> ?prelude:bool -> ?global_models:bool ->
  file:string -> string -> Protocol.response

(** {1 Workspace language service (protocol v5)}

    All calls return the raw response; payloads are the service's
    rendered JSON documents (a [doc_open]/[doc_change]/
    [doc_diagnostics] payload is byte-identical to one-shot
    [fgc run --format=json] of the same text). *)

val doc_open :
  conn -> ?version:int -> ?prelude:bool -> ?global_models:bool ->
  ?backend:Fg_core.Backend.t -> name:string -> string -> Protocol.response

(** [change] is [`Text full_source] or [`Edits splices] with each
    splice [(start, len, text)] in pre-edit byte offsets. *)
val doc_change :
  conn -> version:int -> name:string ->
  [ `Text of string | `Edits of (int * int * string) list ] ->
  Protocol.response

val doc_close : conn -> name:string -> Protocol.response
val doc_diagnostics : conn -> name:string -> Protocol.response
val hover : conn -> name:string -> offset:int -> Protocol.response
val definition : conn -> name:string -> offset:int -> Protocol.response
val completion : conn -> name:string -> offset:int -> Protocol.response
