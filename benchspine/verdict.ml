(* Checking a program's output against its reference (see
   [Inputs.expect]). *)

open Fg_util

(* The FG codes of a rendered run report's diagnostics, in order. *)
let codes j =
  match Json.mem "diagnostics" j with
  | Some (Json.List ds) -> List.filter_map (Json.str_field "code") ds
  | _ -> []

(* [check expect report] on a run report as [fgc run --format=json]
   prints it: [None] when it meets [expect], otherwise what a failure
   list records — the codes that came back and the first diagnostic's
   message, or "wrong-value" and the value when there were none. *)
let check (expect : Inputs.expect) j =
  let ok = Json.bool_field "ok" j = Some true in
  let got = codes j in
  let pass =
    match expect with
    | Inputs.Value v -> ok && Json.str_field "value_str" j = Some v
    | Inputs.Codes cs -> got = cs
    | Inputs.Agrees -> ok && Json.bool_field "theorem" j = Some true
  in
  if pass then None
  else
    match Json.mem "diagnostics" j with
    | Some (Json.List (d :: _)) when got <> [] ->
        Some (got @ Option.to_list (Json.str_field "message" d))
    | _ -> Some [ "wrong-value"; Option.value ~default:"" (Json.str_field "value_str" j) ]

let check_payload expect payload =
  match Json.of_string payload with
  | Ok j -> check expect j
  | Error _ -> Some [ "unparseable" ]

(* One failed operation, as BENCH files list them: the file and what
   came back. *)
type failure = { file : string; got : string list }

let failure_json f =
  Json.Obj [ ("file", Json.Str f.file); ("codes", Json.List (List.map (fun c -> Json.Str c) f.got)) ]
