(** Substitution-based small-step (CBV, leftmost-outermost) semantics
    for System F — an independent third semantics, tested against the
    environment-based big-step evaluator. *)

open Fg_systemf
open Ast

(** Free term variables. *)
val fv : exp -> Fg_util.Names.Sset.t

(** Capture-avoiding term substitution [subst x v e = [x := v] e]. *)
val subst : string -> exp -> exp -> exp

(** Is the term a value (literal, lambda, type abstraction, tuple of
    values, nil/cons spine, or partially applied primitive)? *)
val is_value : exp -> bool

(** Contract the leftmost-outermost redex; [None] when already a value.
    Raises on stuck terms. *)
val step : exp -> exp option

(** Reduce to a value under a fuel bound; returns the normal form and
    the number of steps taken. *)
val normalize : ?fuel:int -> exp -> exp * int

(** Convert a first-order normal form to a big-step value. *)
val value_of_normal_form : exp -> Eval.value

(** Evaluate a closed program with both semantics and require
    first-order agreement; returns (big steps, small steps). *)
val check_agreement : ?fuel:int -> exp -> int * int
