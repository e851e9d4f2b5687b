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

(** The leading [let]s of a closed term, checked once: each binder and
    right-hand side with the environment after it. *)
type prefix

(** [check_prefix ~hole e] checks the leading [let]s of [e], which
    must end at the variable [hole] (a name the checked terms never
    bind, so it stands for whatever body a later term has).  Raises the
    diagnostic of the first ill-typed right-hand side, and
    [Invalid_argument] if the [let]s end anywhere but at [hole]. *)
val check_prefix : hole:string -> exp -> prefix

(** Check a closed program.  With [prefix], each leading [let] of the
    program that has the prefix's next binder and a physically
    identical ([==]) right-hand side is skipped, its environment taken
    from the prefix; the rest is checked by {!typeof} as usual.  The
    type and any diagnostic are the ones the full check gives, because
    every skipped [let] would have been checked under the same
    environment. *)
val typecheck : ?prefix:prefix -> exp -> ty
