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
  cache_dir : string option;
      (** root of the daemon's shared on-disk unit store; [None] (the
          default) runs memory-only *)
  cache_max_bytes : int option;
  profile : Fg_util.Profile.t option;
      (** the daemon's default workload profile: consulted by guided
          sessions whose request ships none, and by startup
          auto-sizing (unit-cache capacity, worker count) *)
  profile_out : string option;
      (** where to write the profile collected over this daemon's
          lifetime, at drain; also flips profile collection on *)
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
    cache_dir = None;
    cache_max_bytes = None;
    profile = None;
    profile_out = None;
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
(* Fleet fuzzing state                                               *)

(* The daemon is the merge point of a distributed guided-fuzzing soak:
   each [fuzz_batch] folds a worker's coverage map and corpus offers in
   here and gets back the fleet-wide map plus the entries it lacks.
   Guarded by a plain mutex — batches are rare (one per worker run)
   and the merge is cheap, so contention is a non-issue. *)
type fuzz_state = {
  fm : Mutex.t;
  mutable fz_coverage : Coverage.map;  (** merged across all workers *)
  fz_corpus : (string, string) Hashtbl.t;  (** digest -> source *)
  mutable fz_batches : int;  (** fuzz_batch requests merged *)
}

let mk_fuzz_state () =
  { fm = Mutex.create (); fz_coverage = []; fz_corpus = Hashtbl.create 64;
    fz_batches = 0 }

(* ---------------------------------------------------------------- *)
(* The server                                                        *)

type t = {
  cfg : config;
  pool : Pool.t;
  fuzz : fuzz_state;
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

(* The stats payload: live pool metrics plus the static config, plus
   the process-wide specializer counters (covering every worker's
   stencil/hybrid requests, since telemetry is process-global). *)
let stats_json cfg sizing disk fuzz ws metrics =
  let t = Telemetry.snapshot () in
  let fz_batches, fz_corpus, fz_distinct, fz_total =
    Mutex.lock fuzz.fm;
    let r =
      ( fuzz.fz_batches, Hashtbl.length fuzz.fz_corpus,
        Coverage.distinct fuzz.fz_coverage, Coverage.total fuzz.fz_coverage )
    in
    Mutex.unlock fuzz.fm;
    r
  in
  Pool.metrics_to_json metrics
    ~extra:
      [
        ("workers", Json.Int cfg.workers);
        ("max_queue", Json.Int cfg.max_queue);
        ( "request_timeout_ms",
          (match cfg.request_timeout_ms with
          | Some t -> Json.Int t
          | None -> Json.Null) );
        ( "auto_sizing",
          (* what profile-driven startup sizing changed; null fields
             mean "kept the configured value" *)
          Json.Obj
            [
              ( "unit_cache_capacity",
                match sizing.Profile.sz_unit_cache_capacity with
                | Some n -> Json.Int n
                | None -> Json.Null );
              ( "workers",
                match sizing.Profile.sz_workers with
                | Some n -> Json.Int n
                | None -> Json.Null );
            ] );
        ( "specializer",
          Json.Obj
            [
              ("stencils_created", Json.Int t.Telemetry.stencils_created);
              ("stencils_shared", Json.Int t.Telemetry.stencils_shared);
              ("stencil_fallbacks", Json.Int t.Telemetry.stencil_fallbacks);
              ("dicts_hoisted", Json.Int t.Telemetry.dicts_hoisted);
            ] );
        ( "disk_cache",
          match disk with
          | None -> Json.Null
          | Some d ->
              let s = Fg_core.Diskcache.stats d in
              Json.Obj
                [
                  ("hits", Json.Int s.Fg_core.Diskcache.d_hits);
                  ("misses", Json.Int s.Fg_core.Diskcache.d_misses);
                  ("evictions", Json.Int s.Fg_core.Diskcache.d_evictions);
                  ("corrupt", Json.Int s.Fg_core.Diskcache.d_corrupt);
                  ("entries", Json.Int s.Fg_core.Diskcache.d_entries);
                  ("bytes", Json.Int s.Fg_core.Diskcache.d_bytes);
                ] );
        ( "fuzz_soak",
          Json.Obj
            [
              ("batches", Json.Int fz_batches);
              ("corpus_size", Json.Int fz_corpus);
              ("coverage_distinct", Json.Int fz_distinct);
              ("coverage_total", Json.Int fz_total);
            ] );
        ("workspace", Fg_workspace.Workspace.stats_json ws);
      ]

let listen_on = function
  | `Unix path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, `Unix path)
  | `Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 64;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, `Tcp (host, bound_port))

let create cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  (* Profile-driven auto-sizing happens once, at startup: the profiled
     cache pressure picks the per-worker unit-cache bound, the profiled
     request volume shrinks an over-provisioned worker pool.  The
     [stats] payload reports what changed under "auto_sizing". *)
  let sizing =
    match cfg.profile with
    | Some p ->
        Profile.auto_size p ~default_capacity:Fg_core.Unit.default_capacity
          ~workers:cfg.workers
    | None -> { Profile.sz_unit_cache_capacity = None; sz_workers = None }
  in
  let cfg =
    match sizing.Profile.sz_workers with
    | Some w -> { cfg with workers = w }
    | None -> cfg
  in
  if cfg.profile_out <> None then Profile.set_collecting true;
  let disk =
    Option.map
      (Fg_core.Diskcache.open_store ?max_bytes:cfg.cache_max_bytes)
      cfg.cache_dir
  in
  let fuzz = mk_fuzz_state () in
  let ws = Fg_workspace.Workspace.create ?fuel:cfg.fuel () in
  let pool =
    Pool.create ?fuel:cfg.fuel ?disk
      ?unit_cache_capacity:sizing.Profile.sz_unit_cache_capacity
      ?profile:cfg.profile ~capacity:cfg.max_queue
      ~stats_json:(stats_json cfg sizing disk fuzz ws) ()
  in
  let listen_fd, bound = listen_on cfg.address in
  Pool.start ~workers:cfg.workers pool;
  {
    cfg;
    pool;
    fuzz;
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

(* Serve one fuzz_batch: fold the worker's coverage map and corpus
   offers into the fleet state, reply with the merged map and the
   entries the worker lacks.  This runs in the reader thread, never in
   the pool — a merge is a few list operations and must not wait behind
   compilation.  The reply's corpus is sorted by digest so a worker
   fleet converges on identical on-disk corpora regardless of merge
   order. *)
let fuzz_response t (req : Protocol.request) =
  let fs = t.fuzz in
  Mutex.lock fs.fm;
  fs.fz_coverage <- Coverage.merge fs.fz_coverage req.Protocol.coverage;
  List.iter
    (fun (d, s) ->
      if not (Hashtbl.mem fs.fz_corpus d) then Hashtbl.add fs.fz_corpus d s)
    req.Protocol.corpus_entries;
  fs.fz_batches <- fs.fz_batches + 1;
  let merged = fs.fz_coverage in
  let batches = fs.fz_batches in
  let corpus_size = Hashtbl.length fs.fz_corpus in
  let missing =
    Hashtbl.fold
      (fun d s acc ->
        if
          List.mem d req.Protocol.have
          || List.mem_assoc d req.Protocol.corpus_entries
        then acc
        else (d, s) :: acc)
      fs.fz_corpus []
  in
  Mutex.unlock fs.fm;
  let missing = List.sort (fun (a, _) (b, _) -> compare a b) missing in
  {
    Protocol.r_id = req.Protocol.id;
    r_status = Protocol.Ok_;
    r_payload =
      Json.to_string
        (Json.Obj
           [
             ("coverage", Coverage.to_json merged);
             ( "corpus",
               Json.Obj (List.map (fun (d, s) -> (d, Json.Str s)) missing) );
             ( "fleet",
               Json.Obj
                 [
                   ("batches", Json.Int batches);
                   ("corpus_size", Json.Int corpus_size);
                   ("coverage_distinct", Json.Int (Coverage.distinct merged));
                 ] );
           ]);
  }

(* Serve one workspace request against the daemon's language service.
   Like the fuzz kind these run in the reader thread, never in the
   pool: an editor's hover must not wait behind a queued batch
   compilation, and the service serializes itself on one internal
   mutex anyway (a document re-check holds it, but re-checks touch
   only the dirty declarations, so the hold is short).  Service-level
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
          ~global_models:req.Protocol.global_models
          ~backend:req.Protocol.backend req.Protocol.source
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
          | Protocol.FuzzBatch ->
              let resp = fuzz_response t req in
              Pool.record_outcome metrics req.Protocol.kind
                resp.Protocol.r_status;
              respond_direct conn resp
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

(* Assemble and persist the workload profile at drain: instantiation
   and resolution counts come from the process-global collection
   registries (every worker domain recorded into them), the request
   and backend mixes from the pool metrics, cache pressure from the
   summed per-worker unit-cache counters. *)
let write_profile t =
  match t.cfg.profile_out with
  | None -> ()
  | Some path ->
      let requests = Pool.request_mix t.pool in
      let programs =
        List.fold_left
          (fun acc (k, n) ->
            match k with
            | "run" | "check" | "translate" -> acc + n
            | _ -> acc)
          0 requests
      in
      let s = Pool.unit_cache_totals t.pool in
      let unit_cache =
        {
          Profile.c_hits = s.Fg_core.Unit.s_hits;
          c_misses = s.Fg_core.Unit.s_misses;
          c_evictions = s.Fg_core.Unit.s_evictions;
          c_invalidations = s.Fg_core.Unit.s_invalidations;
          c_size = s.Fg_core.Unit.s_size;
          c_capacity = s.Fg_core.Unit.s_capacity;
        }
      in
      Profile.save path
        (Profile.collected ~programs ~unit_cache
           ~backends:(Pool.backend_mix t.pool) ~requests ());
      logf t "profile written to %s" path

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
  write_profile t;
  logf t "drained; bye"

let serve cfg = run (create cfg)
