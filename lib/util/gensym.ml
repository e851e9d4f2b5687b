(** Fresh-name generation.

    The translation from FG to System F introduces dictionary variables
    ([Monoid_18]), extra type parameters for associated types ([elt_4])
    and representative names.  A {!t} is an explicit supply so that
    independent pipeline runs are deterministic and reproducible: the
    paper's examples show names like [Semigroup_61] whose exact digits
    are immaterial, but tests rely on two runs over the same program
    producing identical output. *)

type t = { mutable next : int }

let create () = { next = 0 }

let reset g = g.next <- 0

(** [mark g] captures the supply position so a later {!restore} can
    replay from it — how a {!Session} gives every program checked
    against a shared prelude the same fresh names a standalone run
    would produce. *)
let mark g = g.next

let restore g n = g.next <- n

(** [name_at base n]: the name {!fresh} returns for [base] at supply
    position [n]. *)
let name_at base n = base ^ "_" ^ Int.to_string n

(** [fresh g base] returns ["base_N"] for the next counter value [N]. *)
let fresh g base =
  let n = g.next in
  g.next <- n + 1;
  name_at base n

(** [fresh_many g base k] returns [k] distinct names sharing [base]. *)
let fresh_many g base k = List.init k (fun _ -> fresh g base)
