(** Executable counterparts of the paper's metatheory: Theorems 1 and 2
    ("the translation preserves typing"), checked per program — the
    translation is independently re-checked by the System F checker and
    its type compared (up to alpha) against the translation of the FG
    type.  {!check_agreement} additionally requires the direct
    interpreter and the evaluated translation to agree on the program's
    first-order value — stronger than anything the paper claims, and a
    differential oracle for both implementations. *)

type report = {
  fg_ty : Ast.ty;  (** τ: the FG type of the program *)
  elaborated : Ast.exp;
      (** the program with implicit instantiations made explicit *)
  f_exp : Fg_systemf.Ast.exp;  (** f: the translation *)
  f_ty : Fg_systemf.Ast.ty;  (** τ': the System F type of f *)
  expected_f_ty : Fg_systemf.Ast.ty;  (** the translation of τ *)
}

(** Check Theorem 1/2 on one closed program; raises a diagnostic on
    ill-typedness, a failed re-check, or a type mismatch. *)
val check_translation : ?resolution:Resolution.mode -> Ast.exp -> report

(** The same verification on an elaboration produced elsewhere (e.g. by
    a {!Session} with a cached prelude): the [(τ, elaborated, f)]
    triple from {!Check.check}/{!Check.elaborate}.  [prefix] is the
    already-checked translation of the prelude [f] was wrapped in; the
    System F re-check resumes after it (see
    {!Fg_systemf.Typecheck.typecheck}), with the same result as the
    full re-check. *)
val report_of_elaboration :
  ?prefix:Fg_systemf.Typecheck.prefix ->
  Ast.ty * Ast.exp * Fg_systemf.Ast.exp -> report

val check_translation_result :
  ?resolution:Resolution.mode -> Ast.exp ->
  (report, Fg_util.Diag.diagnostic) result

type agreement = {
  direct : Interp.flat;  (** value from the direct FG interpreter *)
  translated : Interp.flat;  (** value from evaluating the translation *)
}

(** Theorem check plus semantic agreement between the two semantics. *)
val check_agreement :
  ?resolution:Resolution.mode -> ?fuel:int -> Ast.exp -> agreement

val check_agreement_result :
  ?resolution:Resolution.mode -> ?fuel:int -> Ast.exp ->
  (agreement, Fg_util.Diag.diagnostic) result
