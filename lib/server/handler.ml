(** Request execution against warm sessions (see the interface).

    One handler lives inside one worker domain and owns one session per
    distinct {!Fg_core.Session.Config.t} it has served — the config a
    request denotes (prelude × resolution mode × backend) {e is} the
    cache key, so adding a session-shaping request field never needs a
    new ad-hoc tuple here.  Each session is created lazily on the first
    request that needs it and kept warm from then on, so the prelude is
    parsed and checked once per worker rather than once per request. *)

open Fg_util
module C = Fg_core

type t = {
  fuel : int option;
  profile : Fg_util.Profile.t option;
      (** the server's default workload profile, attached to guided
          sessions when a request ships none of its own *)
  cache : C.Unit.cache;
      (** one compilation-unit cache shared by every session this
          worker owns: bounded memory and unified counters across all
          served configurations *)
  sessions : C.Session.Table.t;
}

(* ---------------------------------------------------------------- *)
(* The peer tier: other daemons' disk stores, reached over the wire.
   Keys route to peers on a consistent-hash ring so a farm of workers
   agrees on placement without coordination, and a peer that stops
   answering is benched briefly and then re-probed — every failure
   mode degrades to local compilation, never to an error. *)

type peer = {
  p_name : string;
  p_addr : Protocol.address;
  mutable p_conn : Client.conn option;
  mutable p_down_until : float;
      (** wall-clock deadline before which we don't re-dial *)
}

let ring_vnodes = 64
let peer_down_secs = 5.0
let peer_rcv_timeout = 2.0

(* [ring] is every peer's virtual points sorted; a key goes to the
   first point at or after its own digest, wrapping past the end. *)
let ring_of peers =
  let points =
    List.concat
      (List.mapi
         (fun i p ->
           List.init ring_vnodes (fun v ->
               (Digest.string (Printf.sprintf "%s\x00%d" p.p_name v), i)))
         peers)
  in
  Array.of_list
    (List.sort (fun (a, _) (b, _) -> String.compare a b) points)

let route ring key =
  let n = Array.length ring in
  if n = 0 then None
  else begin
    let h = Digest.string key in
    (* First point >= h, else wrap to the smallest point. *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if String.compare (fst ring.(mid)) h < 0 then lo := mid + 1
      else hi := mid
    done;
    Some (snd ring.(if !lo = n then 0 else !lo))
  end

let peer_fail p =
  (match p.p_conn with Some c -> Client.close c | None -> ());
  p.p_conn <- None;
  p.p_down_until <- Unix.gettimeofday () +. peer_down_secs;
  Telemetry.record_peer_failure ()

let peer_conn p =
  match p.p_conn with
  | Some c -> Some c
  | None ->
      if Unix.gettimeofday () < p.p_down_until then None
      else (
        match Client.connect ~rcv_timeout:peer_rcv_timeout p.p_addr with
        | c ->
            p.p_conn <- Some c;
            Some c
        | exception _ ->
            p.p_down_until <- Unix.gettimeofday () +. peer_down_secs;
            Telemetry.record_peer_failure ();
            None)

let peer_store peers =
  let peers = Array.of_list peers in
  let ring = ring_of (Array.to_list peers) in
  let target key = Option.map (Array.get peers) (route ring key) in
  {
    C.Unit.st_name = "peer";
    st_get =
      (fun key ->
        match target key with
        | None -> None
        | Some p -> (
            match peer_conn p with
            | None ->
                Telemetry.record_peer_miss ();
                None
            | Some c -> (
                match Client.cache_get c ~key with
                | Some data ->
                    Telemetry.record_peer_hit ();
                    Some data
                | None ->
                    Telemetry.record_peer_miss ();
                    None
                | exception _ ->
                    peer_fail p;
                    Telemetry.record_peer_miss ();
                    None)));
    st_put =
      (fun key data ->
        match target key with
        | None -> ()
        | Some p -> (
            match peer_conn p with
            | None -> ()
            | Some c -> (
                try ignore (Client.cache_put c ~key ~data)
                with _ -> peer_fail p)));
  }

let create ?fuel ?disk ?(peers = []) ?unit_cache_capacity ?profile () =
  let cache = C.Unit.create_cache ?capacity:unit_cache_capacity () in
  let t = { fuel; profile; cache; sessions = C.Session.Table.create cache } in
  let stores =
    (match disk with None -> [] | Some d -> [ C.Unit.disk_store d ])
    @
    match peers with
    | [] -> []
    | ps ->
        [ peer_store
            (List.map
               (fun (name, addr) ->
                 { p_name = name; p_addr = addr; p_conn = None;
                   p_down_until = 0. })
               ps) ]
  in
  (match stores with [] -> () | _ -> C.Unit.set_stores t.cache stores);
  t

let cache_stats t = C.Unit.stats t.cache

let warm t =
  ignore
    (C.Session.Table.find t.sessions
       (C.Session.Config.of_flags ~prelude:true ~global_models:false
          ~backend:C.Backend.Dict ()))

(* The check/translate payloads mirror the run payload's envelope
   ({"file", "ok", ..., "diagnostics"}) so clients can switch on the
   same fields for every kind. *)

let check_payload s ~file source =
  match Diag.protect (fun () -> C.Session.typecheck ~file s source) with
  | Ok ty ->
      Json.Obj
        [ ("file", Json.Str file); ("ok", Json.Bool true);
          ("type", Json.Str (C.Pretty.ty_to_string ty));
          ("diagnostics", Json.List []) ]
  | Error d -> C.Jsonview.json_of_failure ~file d

let translate_payload s ~file source =
  match Diag.protect (fun () -> C.Session.translate ~file s source) with
  | Ok f ->
      Json.Obj
        [ ("file", Json.Str file); ("ok", Json.Bool true);
          ("systemf", Json.Str (Fg_systemf.Pretty.exp_to_string f));
          ("diagnostics", Json.List []) ]
  | Error d -> C.Jsonview.json_of_failure ~file d

(* Execute one program-shaped request; Stats/Shutdown (answered by the
   pool) and CacheGet/CachePut/FuzzBatch plus the workspace kinds
   (answered directly by the server's reader thread) must not reach
   here. *)
let handle t (req : Protocol.request) : Protocol.status * string =
  let file = req.file in
  match req.kind with
  | Protocol.Stats | Protocol.Shutdown | Protocol.CacheGet
  | Protocol.CachePut | Protocol.FuzzBatch | Protocol.DocOpen
  | Protocol.DocChange | Protocol.DocClose | Protocol.DocDiagnostics
  | Protocol.Hover | Protocol.Definition | Protocol.Completion ->
      Diag.ice "control request %s reached a worker handler"
        (Protocol.kind_name req.kind)
  | Protocol.FuzzOne ->
      let cfg =
        { C.Fuzz.seed = req.seed; count = 1; size = max 1 req.size;
          mutants = max 0 req.mutants; backend = req.backend;
          profile = None; guided = false; corpus_dir = None }
      in
      let report = C.Fuzz.run ~domains:1 cfg in
      let status =
        if report.C.Fuzz.r_failures = [] then Protocol.Ok_
        else Protocol.Failed
      in
      (status, Json.to_string (C.Fuzz.report_to_json report))
  | Protocol.Check | Protocol.Run | Protocol.Translate -> (
      let profile =
        (* A request's own profile wins over the server default. *)
        match req.Protocol.profile with
        | Some _ as p -> p
        | None -> t.profile
      in
      let s =
        C.Session.Table.find t.sessions
          (C.Session.Config.of_flags ?profile ~prelude:req.prelude
             ~global_models:req.global_models ~backend:req.backend ())
      in
      match req.kind with
      | Protocol.Check ->
          let payload = check_payload s ~file req.source in
          let ok = Json.bool_field "ok" payload = Some true in
          ((if ok then Protocol.Ok_ else Protocol.Failed),
           Json.to_string payload)
      | Protocol.Translate ->
          let payload = translate_payload s ~file req.source in
          let ok = Json.bool_field "ok" payload = Some true in
          ((if ok then Protocol.Ok_ else Protocol.Failed),
           Json.to_string payload)
      | _ ->
          (* Run: the recovering full pipeline, rendered by the same
             code path as one-shot `fgc run --format=json`. *)
          let report =
            C.Session.run_full ~file ?fuel:t.fuel s req.source
          in
          let payload = C.Jsonview.json_of_run_report ~file report in
          let status =
            match report.C.Session.outcome with
            | Some _ -> Protocol.Ok_
            | None -> Protocol.Failed
          in
          (status, Json.to_string payload))

(* Defensive wrapper: a worker must survive anything a request throws,
   including non-diagnostic exceptions from deep inside the pipeline. *)
let handle_safe t req =
  match handle t req with
  | result -> result
  | exception Diag.Error d ->
      (Protocol.Failed,
       Json.to_string (C.Jsonview.json_of_failure ~file:req.Protocol.file d))
  | exception exn ->
      ( Protocol.Failed,
        Protocol.error_payload ~file:req.Protocol.file ~code:"FG0901"
          "uncaught exception while serving request: %s"
          (Printexc.to_string exn) )
