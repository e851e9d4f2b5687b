(** The daemon: accept loop, per-connection reader threads, graceful
    shutdown (see the interface).

    Thread/domain structure: the accept loop runs wherever {!run} is
    called; each accepted connection gets a reader {e thread} (reading
    is I/O-bound, so threads in one domain are plenty), while actual
    compilation happens in the pool's worker {e domains}.  A response
    can therefore be written from any worker at any time — every write
    of a frame happens under the connection's write mutex, and a
    connection's fd is closed only when its reader has seen EOF {e
    and} its last in-flight response has been written. *)

open Fg_util

type address = Protocol.address

type config = {
  address : address;
  workers : int;
  max_queue : int;
  request_timeout_ms : int option;
  max_frame : int;
  fuel : int option;
  log : bool;
}

let default_config address =
  {
    address;
    workers = Fg_core.Session.default_domains ();
    max_queue = 128;
    request_timeout_ms = None;
    max_frame = Protocol.default_max_frame;
    fuel = Some 10_000_000;
    log = false;
  }

(* ---------------------------------------------------------------- *)
(* Connections                                                       *)

type conn = {
  fd : Unix.file_descr;
  wm : Mutex.t;  (** guards [fd] writes, [open_], [eof] *)
  mutable open_ : bool;
  mutable eof : bool;
  inflight : int Atomic.t;
}

let mk_conn fd =
  { fd; wm = Mutex.create (); open_ = true; eof = false;
    inflight = Atomic.make 0 }

let ignorable = function
  | Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
  | Unix.ESHUTDOWN ->
      true
  | _ -> false

(* Write one response frame; peer-gone errors are swallowed (the
   client that hung up forfeits its responses). *)
let write_locked conn resp =
  if conn.open_ then
    try
      Protocol.write_frame conn.fd
        (Json.to_string (Protocol.response_to_json resp))
    with Unix.Unix_error (e, _, _) when ignorable e -> ()

let close_if_done_locked conn =
  if conn.open_ && conn.eof && Atomic.get conn.inflight = 0 then begin
    conn.open_ <- false;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Respond directly from the reader thread (protocol errors, overload
   — responses with no in-flight ticket). *)
let respond_direct conn resp =
  Mutex.lock conn.wm;
  write_locked conn resp;
  Mutex.unlock conn.wm

(* Respond for a job admitted with an in-flight ticket: write, release
   the ticket, close the fd if the reader is already gone. *)
let respond_inflight conn resp =
  Mutex.lock conn.wm;
  write_locked conn resp;
  Atomic.decr conn.inflight;
  close_if_done_locked conn;
  Mutex.unlock conn.wm

let mark_eof conn =
  Mutex.lock conn.wm;
  conn.eof <- true;
  close_if_done_locked conn;
  Mutex.unlock conn.wm

(* Wake a reader blocked in [read] without racing fd reuse: shutdown,
   not close — the reader's own EOF path does the close. *)
let force_shutdown conn =
  Mutex.lock conn.wm;
  (if conn.open_ then
     try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
  Mutex.unlock conn.wm

(* ---------------------------------------------------------------- *)
(* The server                                                        *)

type t = {
  cfg : config;
  pool : Pool.t;
  ws : Fg_workspace.Workspace.t;
      (** the workspace language service: open-document state served
          by the v5 doc/hover/definition/completion kinds *)
  listen_fd : Unix.file_descr;
  bound : address;  (** with the OS-chosen port resolved *)
  reg_m : Mutex.t;
  mutable conns : conn list;
  mutable readers : Thread.t list;
  stop_requested : bool Atomic.t;
}

let logf t fmt =
  if t.cfg.log then Fmt.epr ("fgc-serve: " ^^ fmt ^^ "@.")
  else Fmt.(kstr (fun _ -> ())) fmt

let bound_address t = t.bound

(* Signal handlers must not take locks: only flip the flag; the accept
   loop notices within its poll interval and runs the drain from a
   clean context. *)
let signal_stop t = Atomic.set t.stop_requested true

let request_shutdown t =
  Atomic.set t.stop_requested true;
  Pool.initiate_stop t.pool

(* The stats payload: live pool metrics plus the static config and the
   workspace service's counters. *)
let stats_json cfg ws metrics =
  Pool.metrics_to_json metrics
    ~extra:
      [
        ("workers", Json.Int cfg.workers);
        ("max_queue", Json.Int cfg.max_queue);
        ( "request_timeout_ms",
          (match cfg.request_timeout_ms with
          | Some t -> Json.Int t
          | None -> Json.Null) );
        ("workspace", Fg_workspace.Workspace.stats_json ws);
      ]

(* Every failure to listen is the configuration error FG1004, raised
   before any worker starts. *)
let cannot_listen where fmt =
  Diag.config_error ~code:"FG1004" ("cannot listen on %s: " ^^ fmt) where

(* A daemon replaces only a stale socket at its path, one whose daemon
   is gone so that connecting is refused.  A live daemon's socket and
   any other file are left alone. *)
let claim_socket_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            match Unix.connect fd (Unix.ADDR_UNIX path) with
            | () -> true
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
      in
      if live then cannot_listen path "another daemon is listening there"
      else Unix.unlink path
  | _ -> cannot_listen path "the path exists and is not a socket"

let bind_and_listen domain sockaddr =
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd sockaddr;
    Unix.listen fd 64
  with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let listen_on address =
  let where =
    match address with
    | `Unix path -> path
    | `Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  in
  try
    match address with
    | `Unix path ->
        claim_socket_path path;
        (bind_and_listen Unix.PF_UNIX (Unix.ADDR_UNIX path), address)
    | `Tcp (host, port) ->
        (* the socket layer would bind [port] modulo 65536 *)
        if port < 0 || port > 65535 then
          cannot_listen where "port %d is outside 0-65535" port;
        let addr =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> cannot_listen where "unknown host %s" host)
        in
        let fd = bind_and_listen Unix.PF_INET (Unix.ADDR_INET (addr, port)) in
        let bound_port =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> port
        in
        (fd, `Tcp (host, bound_port))
  with Unix.Unix_error (e, _, _) ->
    cannot_listen where "%s" (Unix.error_message e)

let create cfg =
  let cfg =
    { cfg with workers = max 1 cfg.workers; max_queue = max 1 cfg.max_queue }
  in
  let ws = Fg_workspace.Workspace.create ?fuel:cfg.fuel () in
  let pool =
    Pool.create ?fuel:cfg.fuel ~capacity:cfg.max_queue
      ~stats_json:(stats_json cfg ws) ()
  in
  let listen_fd, bound = listen_on cfg.address in
  Pool.start ~workers:cfg.workers pool;
  {
    cfg;
    pool;
    ws;
    listen_fd;
    bound;
    reg_m = Mutex.create ();
    conns = [];
    readers = [];
    stop_requested = Atomic.make false;
  }

(* ---------------------------------------------------------------- *)
(* Reader: one thread per connection                                 *)

let deadline_of t (req : Protocol.request) ~enqueued_ns =
  match
    match req.timeout_ms with
    | Some ms -> Some ms
    | None -> t.cfg.request_timeout_ms
  with
  | Some ms -> Some (enqueued_ns + (ms * 1_000_000))
  | None -> None

(* Serve one workspace request against the daemon's language service.
   These run in the reader thread, never in the pool: an editor's
   hover must not wait behind a queued batch compilation, and the
   service serializes itself on one internal mutex anyway (a document
   re-check holds it, but re-checks touch only the dirty declarations,
   so the hold is short).  Service-level
   failures (FG0807 unknown document, FG0808 stale version) come back
   as [Failed] with the standard diagnostics envelope. *)
let workspace_response t (req : Protocol.request) =
  let ws = t.ws in
  let name = req.Protocol.file in
  let result =
    try
      match req.Protocol.kind with
    | Protocol.DocOpen ->
        Fg_workspace.Workspace.open_doc ws ~name
          ~version:req.Protocol.doc_version ~prelude:req.Protocol.prelude
          ~global_models:req.Protocol.global_models req.Protocol.source
    | Protocol.DocChange ->
        let change =
          if req.Protocol.source <> "" then
            Fg_workspace.Workspace.Full_text req.Protocol.source
          else
            Fg_workspace.Workspace.Edits
              (List.map
                 (fun (s, l, txt) ->
                   { Fg_workspace.Workspace.e_start = s; e_len = l;
                     e_text = txt })
                 req.Protocol.edits)
        in
        Fg_workspace.Workspace.change_doc ws ~name
          ~version:req.Protocol.doc_version change
    | Protocol.DocClose -> Fg_workspace.Workspace.close_doc ws ~name
    | Protocol.DocDiagnostics -> Fg_workspace.Workspace.diagnostics ws ~name
    | Protocol.Hover ->
        Fg_workspace.Workspace.hover ws ~name ~offset:req.Protocol.offset
    | Protocol.Definition ->
        Fg_workspace.Workspace.definition ws ~name
          ~offset:req.Protocol.offset
    | Protocol.Completion ->
        Fg_workspace.Workspace.completion ws ~name
          ~offset:req.Protocol.offset
      | _ -> assert false
    with Diag.Error d ->
      (* A check that escapes recovery (e.g. an ill-formed prelude)
         still answers the frame instead of killing the reader. *)
      Error
        { Fg_workspace.Workspace.ws_code = d.Diag.code;
          ws_msg = d.Diag.message }
  in
  match result with
  | Ok payload ->
      { Protocol.r_id = req.Protocol.id; r_status = Protocol.Ok_;
        r_payload = payload }
  | Error e ->
      {
        Protocol.r_id = req.Protocol.id;
        r_status = Protocol.Failed;
        r_payload =
          Protocol.error_payload ~file:name
            ~code:e.Fg_workspace.Workspace.ws_code "%s"
            e.Fg_workspace.Workspace.ws_msg;
      }

let reject conn (req : Protocol.request) status code msg =
  respond_direct conn
    {
      Protocol.r_id = req.Protocol.id;
      r_status = status;
      r_payload =
        Protocol.error_payload ~file:req.Protocol.file ~code "%s" msg;
    }

let handle_frame t conn payload =
  let metrics = Pool.metrics t.pool in
  match Json.of_string payload with
  | Error e ->
      Pool.record_protocol_error metrics;
      respond_direct conn
        {
          Protocol.r_id = 0;
          r_status = Protocol.Protocol_error;
          r_payload =
            Protocol.error_payload ~file:"<frame>" ~code:"FG0803"
              "frame is not valid JSON: %s" e;
        }
  | Ok j -> (
      match Protocol.request_of_json j with
      | Error (Protocol.Bad_version v) ->
          Pool.record_protocol_error metrics;
          respond_direct conn
            {
              Protocol.r_id =
                Option.value ~default:0 (Json.int_field "id" j);
              r_status = Protocol.Protocol_error;
              r_payload =
                (match v with
                | Some v ->
                    Protocol.error_payload ~file:"<frame>" ~code:"FG0804"
                      "protocol version mismatch: request has %d, server \
                       speaks %d"
                      v Protocol.version
                | None ->
                    Protocol.error_payload ~file:"<frame>" ~code:"FG0804"
                      "request is missing the protocol version field 'v' \
                       (server speaks %d)"
                      Protocol.version);
            }
      | Error (Protocol.Bad_request msg) ->
          Pool.record_protocol_error metrics;
          respond_direct conn
            {
              Protocol.r_id =
                Option.value ~default:0 (Json.int_field "id" j);
              r_status = Protocol.Protocol_error;
              r_payload =
                Protocol.error_payload ~file:"<frame>" ~code:"FG0803"
                  "malformed request: %s" msg;
            }
      | Ok req -> (
          match req.Protocol.kind with
          | Protocol.DocOpen | Protocol.DocChange | Protocol.DocClose
          | Protocol.DocDiagnostics | Protocol.Hover | Protocol.Definition
          | Protocol.Completion ->
              let resp = workspace_response t req in
              Pool.record_outcome metrics req.Protocol.kind
                resp.Protocol.r_status;
              respond_direct conn resp
          | _ ->
          let enqueued_ns = Pool.now_ns () in
          Atomic.incr conn.inflight;
          let job =
            {
              Pool.req;
              enqueued_ns;
              deadline_ns = deadline_of t req ~enqueued_ns;
              respond = respond_inflight conn;
            }
          in
          match req.Protocol.kind with
          | Protocol.Shutdown ->
              (* Shutdown must not be droppable by a full queue: block
                 for space (the drain it triggers frees space fast). *)
              if not (Pool.enqueue_wait t.pool job) then begin
                Atomic.decr conn.inflight;
                Pool.record_outcome metrics req.Protocol.kind
                  Protocol.Shutting_down;
                reject conn req Protocol.Shutting_down "FG0805"
                  "server is already shutting down"
              end
          | _ -> (
              match Pool.try_enqueue t.pool job with
              | `Ok -> ()
              | `Overload ->
                  Atomic.decr conn.inflight;
                  Pool.record_outcome metrics req.Protocol.kind
                    Protocol.Overload;
                  reject conn req Protocol.Overload "FG0802"
                    (Printf.sprintf
                       "server overloaded: request queue is full (%d \
                        pending); retry later"
                       t.cfg.max_queue)
              | `Shutting_down ->
                  Atomic.decr conn.inflight;
                  Pool.record_outcome metrics req.Protocol.kind
                    Protocol.Shutting_down;
                  reject conn req Protocol.Shutting_down "FG0805"
                    "server is shutting down; no new work accepted")))

let reader t conn =
  let dec = Protocol.decoder ~max_frame:t.cfg.max_frame () in
  let rec loop () =
    match Protocol.next_frame dec with
    | `Frame payload ->
        handle_frame t conn payload;
        loop ()
    | `Await ->
        if
          try Protocol.read_chunk dec conn.fd
          with Unix.Unix_error (e, _, _) when ignorable e -> false
        then loop ()
    | `Error msg ->
        (* Framing is unrecoverable: report, then drop the link. *)
        Pool.record_protocol_error (Pool.metrics t.pool);
        respond_direct conn
          {
            Protocol.r_id = 0;
            r_status = Protocol.Protocol_error;
            r_payload =
              Protocol.error_payload ~file:"<frame>" ~code:"FG0806" "%s"
                msg;
          }
  in
  (try loop ()
   with e ->
     logf t "reader error: %s" (Printexc.to_string e));
  mark_eof conn

(* ---------------------------------------------------------------- *)
(* Accept loop and shutdown                                          *)

let accept_one t =
  match Unix.select [ t.listen_fd ] [] [] 0.1 with
  | [], _, _ -> ()
  | _ -> (
      match Unix.accept t.listen_fd with
      | fd, _ ->
          (* Small request/response frames want low latency; unix
             sockets reject the option, which is fine. *)
          (try Unix.setsockopt fd Unix.TCP_NODELAY true
           with Unix.Unix_error _ -> ());
          let conn = mk_conn fd in
          Pool.record_connection (Pool.metrics t.pool);
          let th = Thread.create (fun () -> reader t conn) () in
          Mutex.lock t.reg_m;
          t.conns <- conn :: t.conns;
          t.readers <- th :: t.readers;
          Mutex.unlock t.reg_m
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run t =
  (* A SIGPIPE from a vanished client must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  logf t "listening (workers=%d, max_queue=%d)" t.cfg.workers
    t.cfg.max_queue;
  while
    (not (Atomic.get t.stop_requested)) && not (Pool.stopping t.pool)
  do
    accept_one t
  done;
  logf t "draining";
  (* Stop accepting, serve everything admitted, then tear down. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.bound with
  | `Unix path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | `Tcp _ -> ());
  Pool.initiate_stop t.pool;
  Pool.join t.pool;
  Mutex.lock t.reg_m;
  let conns = t.conns and readers = t.readers in
  Mutex.unlock t.reg_m;
  List.iter force_shutdown conns;
  List.iter Thread.join readers;
  logf t "drained; bye"

let serve cfg = run (create cfg)
