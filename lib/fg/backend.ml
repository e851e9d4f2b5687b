(** The one translation backend (see the interface). *)

type t = Dict
