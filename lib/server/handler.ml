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
  cache : C.Unit.cache;
      (** one compilation-unit cache shared by every session this
          worker owns: bounded memory and unified counters across all
          served configurations *)
  sessions : C.Session.Table.t;
}

let create ?fuel () =
  let cache = C.Unit.create_cache () in
  { fuel; cache; sessions = C.Session.Table.create cache }

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
   pool) and the workspace kinds (answered directly by the server's
   reader thread) must not reach here. *)
let handle t (req : Protocol.request) : Protocol.status * string =
  let file = req.file in
  match req.kind with
  | Protocol.Stats | Protocol.Shutdown | Protocol.DocOpen
  | Protocol.DocChange | Protocol.DocClose | Protocol.DocDiagnostics
  | Protocol.Hover | Protocol.Definition | Protocol.Completion ->
      Diag.ice "control request %s reached a worker handler"
        (Protocol.kind_name req.kind)
  | Protocol.Check | Protocol.Run | Protocol.Translate -> (
      let s =
        C.Session.Table.find t.sessions
          (C.Session.Config.of_flags ~prelude:req.prelude
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
