(** Client side of the wire protocol (see the interface).

    The batch path is the throughput workhorse: it keeps a bounded
    window of requests pipelined on one connection, matches responses
    back to requests by id (workers may answer out of order), retries
    bounded-ly on overload, and returns responses in request order. *)

open Fg_util

type conn = { fd : Unix.file_descr; dec : Protocol.decoder }

exception Client_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Client_error m)) fmt

(* Every socket failure on an open connection is a [Client_error]; a
   receive timeout ([SO_RCVTIMEO]) surfaces from [read] as EAGAIN. *)
let on_socket what f =
  try f () with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      fail "%s: timed out" what
  | Unix.Unix_error (e, _, _) -> fail "%s: %s" what (Unix.error_message e)

let connect ?max_frame ?rcv_timeout (addr : Protocol.address) =
  let domain, sockaddr, where =
    match addr with
    | `Unix path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path, path)
    | `Tcp (host, port) ->
        let inet =
          try Unix.inet_addr_of_string host
          with _ -> (
            try (Unix.gethostbyname host).Unix.h_addr_list.(0)
            with Not_found -> fail "unknown host %s" host)
        in
        ( Unix.PF_INET,
          Unix.ADDR_INET (inet, port),
          Printf.sprintf "%s:%d" host port )
  in
  let refused e =
    fail "cannot connect to %s: %s" where (Unix.error_message e)
  in
  let fd =
    try Unix.socket domain Unix.SOCK_STREAM 0
    with Unix.Unix_error (e, _, _) -> refused e
  in
  (try
     Unix.connect fd sockaddr;
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     refused e);
  (* A bounded receive wait turns a hung server into a Client_error the
     caller can report, instead of a stuck caller. *)
  (match rcv_timeout with
  | None -> ()
  | Some s -> (
      try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
      with Unix.Unix_error _ | Invalid_argument _ -> ()));
  { fd; dec = Protocol.decoder ?max_frame () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Send raw bytes as one frame — deliberately malformed payloads for
   tests and the CI probe go through here. *)
let send_raw_frame c payload =
  on_socket "send" (fun () -> Protocol.write_frame c.fd payload)

let send c req =
  send_raw_frame c (Json.to_string (Protocol.request_to_json req))

let send_raw_bytes c s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  on_socket "send" (fun () ->
      while !off < n do
        off := !off + Unix.write c.fd b !off (n - !off)
      done)

let read_response c =
  let rec loop () =
    match Protocol.next_frame c.dec with
    | `Frame payload -> (
        match Json.of_string payload with
        | Error e -> fail "response frame is not valid JSON: %s" e
        | Ok j -> (
            match Protocol.response_of_json j with
            | Ok r -> r
            | Error e -> fail "bad response: %s" e))
    | `Error e -> fail "response framing error: %s" e
    | `Await ->
        if on_socket "read" (fun () -> Protocol.read_chunk c.dec c.fd) then
          loop ()
        else fail "connection closed by server"
  in
  loop ()

let request c req =
  send c req;
  let r = read_response c in
  if r.Protocol.r_id <> 0 && r.Protocol.r_id <> req.Protocol.id then
    fail "response id %d for request %d" r.Protocol.r_id req.Protocol.id;
  r

(* ---------------------------------------------------------------- *)
(* Batch: a window of requests in flight on one connection          *)

let default_window = 32

(* Overload backoff: exponential from 2ms, capped, with uniform jitter
   in [delay/2, delay] so synchronized clients spread out instead of
   re-stampeding the queue in lockstep.  Pure in the generator, so
   tests can replay a seed and assert the exact delay sequence. *)
let backoff_base_ms = 2
let backoff_cap_ms = 200

let backoff_ms rng ~attempt =
  let d =
    min backoff_cap_ms (backoff_base_ms * (1 lsl min (max 0 attempt) 7))
  in
  Prng.in_range rng (max 1 (d / 2)) d

let batch ?(window = default_window) ?(overload_retries = 64)
    ?(backoff_seed = 0) c (reqs : Protocol.request list) :
    Protocol.response list =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  (* Re-key requests onto ids 1..n so responses map back to slots no
     matter what ids the caller picked. *)
  let keyed =
    Array.mapi (fun i r -> { r with Protocol.id = i + 1 }) reqs
  in
  let results : Protocol.response option array = Array.make n None in
  let retries_left = Array.make n overload_retries in
  let attempts = Array.make n 0 in
  let slept_ms = Array.make n 0 in
  let rng = ref (Prng.make backoff_seed) in
  let window = max 1 window in
  let next_to_send = ref 0 in
  let to_resend = Queue.create () in
  let inflight = ref 0 in
  let received = ref 0 in
  while !received < n do
    (* Fill the window: resends first (they are oldest), then fresh. *)
    while
      !inflight < window
      && ((not (Queue.is_empty to_resend)) || !next_to_send < n)
    do
      let idx =
        if not (Queue.is_empty to_resend) then Queue.pop to_resend
        else begin
          let i = !next_to_send in
          incr next_to_send;
          i
        end
      in
      send c keyed.(idx);
      incr inflight
    done;
    let r = read_response c in
    decr inflight;
    let idx = r.Protocol.r_id - 1 in
    if idx < 0 || idx >= n then
      fail "response for unknown request id %d" r.Protocol.r_id
    else if
      r.Protocol.r_status = Protocol.Overload
      && retries_left.(idx) > 0
      &&
      (* The queue was full: back off before resending, unless the
         accumulated pauses would outlive the request's own deadline —
         past that point the retry could only come back [Timeout], so
         surface the overload instead. *)
      let d, rng' = backoff_ms !rng ~attempt:attempts.(idx) in
      rng := rng';
      let budget =
        match keyed.(idx).Protocol.timeout_ms with
        | Some t -> t
        | None -> max_int
      in
      slept_ms.(idx) + d <= budget
      && begin
           retries_left.(idx) <- retries_left.(idx) - 1;
           attempts.(idx) <- attempts.(idx) + 1;
           slept_ms.(idx) <- slept_ms.(idx) + d;
           Unix.sleepf (float_of_int d /. 1000.);
           true
         end
    then Queue.push idx to_resend
    else begin
      (match results.(idx) with
      | None -> incr received
      | Some _ -> fail "duplicate response for request id %d" (idx + 1));
      results.(idx) <- Some r
    end
  done;
  Array.to_list
    (Array.mapi
       (fun i -> function
         | Some r -> { r with Protocol.r_id = reqs.(i).Protocol.id }
         | None -> fail "missing response for request %d" (i + 1))
       results)

(* ---------------------------------------------------------------- *)
(* Conveniences                                                      *)

let stats c = request c (Protocol.request ~id:1 Protocol.Stats)

let shutdown c = request c (Protocol.request ~id:1 Protocol.Shutdown)

let run_file c ?timeout_ms ?(prelude = false) ?(global_models = false)
    ~file source =
  request c
    (Protocol.request ~id:1 ~file ~source ~prelude ~global_models
       ?timeout_ms Protocol.Run)

(* ---------------------------------------------------------------- *)
(* Workspace language service (v5)                                   *)

let doc_open c ?(version = 1) ?(prelude = false) ?(global_models = false)
    ?(backend = Fg_core.Backend.Dict) ~name source =
  request c
    (Protocol.request ~id:1 ~file:name ~source ~prelude ~global_models
       ~backend ~doc_version:version Protocol.DocOpen)

let doc_change c ~version ~name change =
  let source, edits =
    match change with
    | `Text source -> (Some source, [])
    | `Edits edits -> (None, edits)
  in
  request c
    (Protocol.request ~id:1 ~file:name ?source ~edits ~doc_version:version
       Protocol.DocChange)

let doc_close c ~name =
  request c (Protocol.request ~id:1 ~file:name Protocol.DocClose)

let doc_diagnostics c ~name =
  request c (Protocol.request ~id:1 ~file:name Protocol.DocDiagnostics)

let hover c ~name ~offset =
  request c (Protocol.request ~id:1 ~file:name ~offset Protocol.Hover)

let definition c ~name ~offset =
  request c (Protocol.request ~id:1 ~file:name ~offset Protocol.Definition)

let completion c ~name ~offset =
  request c (Protocol.request ~id:1 ~file:name ~offset Protocol.Completion)
