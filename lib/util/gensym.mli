(** Fresh-name generation: an explicit, deterministic supply.

    The translation introduces dictionary variables ([Monoid_18]) and
    associated-type parameters ([elt_4]); an explicit supply keeps
    independent pipeline runs reproducible. *)

type t

val create : unit -> t
val reset : t -> unit

(** [mark]/[restore]: capture the supply position and later rewind to
    it, so independent programs checked against a shared, already-
    built environment each see the same supply state (deterministic
    output regardless of checking order). *)
val mark : t -> int

val restore : t -> int -> unit

(** [fresh g base] returns ["base_N"] for the next counter value. *)
val fresh : t -> string -> string

(** [name_at base n]: the name {!fresh} returns for [base] when the
    supply is at position [n] (a {!mark}). *)
val name_at : string -> int -> string

(** [fresh_many g base k] returns [k] distinct names sharing [base]. *)
val fresh_many : t -> string -> int -> string list
