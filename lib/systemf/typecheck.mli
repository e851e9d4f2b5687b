(** Type checker for System F — the standard rules the paper omits,
    plus [let], tuples/[nth], [fix], [if], literals and primitives.
    Types compare up to alpha.  This checker is the verification half of
    the reproduction of Theorems 1 and 2: every translated term is
    re-checked here. *)

open Ast
module Smap := Fg_util.Names.Smap

type env = { vars : ty Smap.t; tyvars : Fg_util.Names.Sset.t }

val empty_env : env
val bind_var : env -> string -> ty -> env
val bind_tyvars : env -> string list -> env

(** Well-formedness: every free type variable must be in scope. *)
val check_ty : ?loc:Fg_util.Loc.t -> env -> ty -> unit

(** The typing judgment. *)
val typeof : env -> exp -> ty

(** Check a closed program. *)
val typecheck : exp -> ty
