(** JSON views of driver results (see the interface).  This is the
    single source of truth for the machine-readable program-result
    shape: [fgc run --format=json] prints {!json_of_run_report}, and
    the [fgc serve] daemon sends the very same rendering as its [run]
    payload, so a served response is byte-identical to a one-shot run
    by construction. *)

open Fg_util

let json_of_diags ds = Json.List (List.map Diag.to_json ds)

let rec json_of_flat : Interp.flat -> Json.t = function
  | Interp.FlInt n -> Json.Int n
  | Interp.FlBool b -> Json.Bool b
  | Interp.FlUnit -> Json.Null
  | Interp.FlList vs -> Json.List (List.map json_of_flat vs)
  | Interp.FlTuple vs ->
      Json.Obj [ ("tuple", Json.List (List.map json_of_flat vs)) ]
  | Interp.FlFun -> Json.Str "<fun>"

let json_of_outcome ~file (o : Session.outcome) =
  Json.Obj
    [ ("file", Json.Str file);
      ("ok", Json.Bool true);
      ("type", Json.Str (Pretty.ty_to_string o.fg_ty));
      ("value", json_of_flat o.value);
      ("value_str", Json.Str (Interp.flat_to_string o.value));
      ("theorem", Json.Bool o.theorem_holds);
      ("direct_steps", Json.Int o.direct_steps);
      ("translated_steps", Json.Int o.translated_steps) ]

let json_of_failure ~file d =
  Json.Obj
    [ ("file", Json.Str file); ("ok", Json.Bool false);
      ("diagnostics", json_of_diags [ d ]) ]

let json_of_run_report ~file (report : Session.run_report) =
  let fields =
    match report.Session.outcome with
    | Some o -> (
        match json_of_outcome ~file o with
        | Json.Obj fields -> fields
        | j -> [ ("result", j) ])
    | None -> [ ("file", Json.Str file); ("ok", Json.Bool false) ]
  in
  Json.Obj
    (fields @ [ ("diagnostics", json_of_diags report.Session.diagnostics) ])
