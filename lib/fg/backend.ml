(** Backend selection (see the interface). *)

open Fg_util
module F = Fg_systemf

type t = Dict | Stencil | Hybrid

let all = [ Dict; Stencil; Hybrid ]

let to_string = function
  | Dict -> "dict"
  | Stencil -> "stencil"
  | Hybrid -> "hybrid"

let of_string = function
  | "dict" -> Some Dict
  | "stencil" -> Some Stencil
  | "hybrid" -> Some Hybrid
  | _ -> None

let of_string_exn ?loc s =
  match of_string s with
  | Some b -> b
  | None ->
      Diag.config_error ?loc ~code:"FG1001"
        ~notes:
          [
            Diag.note "known backends: %s"
              (String.concat ", " (List.map to_string all));
          ]
        "unknown backend '%s'" s

let specialize_mode = function
  | Dict -> None
  | Stencil -> Some F.Specialize.Stencil
  | Hybrid -> Some F.Specialize.Hybrid
