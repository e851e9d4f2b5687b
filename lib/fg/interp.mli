(** Direct big-step interpreter for System FG — the second semantics,
    used differentially against the dictionary-passing translation.

    Model declarations build runtime dictionaries; type application
    substitutes the (closed) actual types and resolves the instantiated
    requirements against the application site's model environment, the
    runtime mirror of FG's lexically scoped model lookup.  Parameterized
    models are matched structurally and instantiated lazily (knot-tied,
    so instances may recurse). *)

open Ast
module Smap := Fg_util.Names.Smap

type value =
  | VInt of int
  | VBool of bool
  | VUnit
  | VTuple of value list
  | VList of value list
  | VClos of renv * (string * ty) list * exp
  | VTyClos of renv * string list * constr list * exp
  | VPrim of string * int * value list

and renv = {
  venv : value option ref Smap.t;
  models : rmodel list;
  named : rmodel Smap.t;  (** named models, activated by [using] *)
  concepts : concept_decl Smap.t;
}

and rmodel = {
  r_concept : string;
  r_params : string list;
  r_constrs : constr list;
  r_args : ty list;
  r_assoc : (string * ty) list;
  r_impl : rimpl;
}

and rimpl =
  | RReady of (string * value) list
  | RDeferred of renv * (string * exp) list

val value_kind : value -> string
val pp_value : value Fmt.t
val value_to_string : value -> string

(** {1 Flat first-order values}

    The common ground for differential tests between this interpreter
    and System F evaluation of the translation. *)

type flat =
  | FlInt of int
  | FlBool of bool
  | FlUnit
  | FlTuple of flat list
  | FlList of flat list
  | FlFun  (** any function-like value; compares equal to itself *)

val flatten : value -> flat
val flatten_f : Fg_systemf.Eval.value -> flat
val pp_flat : flat Fmt.t
val flat_to_string : flat -> string
val flat_equal : flat -> flat -> bool

(** {1 Evaluation} *)

val default_fuel : int

(** Evaluate a closed, well-typed (elaborated) program; returns the
    value and the number of beta steps spent. *)
val run_program : ?fuel:int -> exp -> value * int

val run_value : ?fuel:int -> exp -> value
