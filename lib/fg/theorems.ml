(** Executable counterparts of the paper's metatheory.

    Theorem 1 (Section 4) and Theorem 2 (Section 5) state that the
    translation preserves well-typing: if [Γ ⊢ e : τ ⇒ f] and Γ
    corresponds to a System F environment Σ, then [Σ ⊢ f : τ'] with
    [Γ ⊢ τ ⇒ τ'].  The paper proves this in Isabelle; this module
    checks the statement {e per program}: for a closed FG program we

    + type check and translate it ([Γ ⊢ e : τ ⇒ f]),
    + independently re-check the output with the System F checker
      ([⊢ f : τ']), and
    + compare [τ'] against the translation of [τ], up to alpha.

    Run over the whole paper corpus and over thousands of
    randomly generated well-typed programs, this is the testing
    substitute for the mechanized proof (see DESIGN.md §3).

    {!check_agreement} additionally checks semantic agreement — the
    direct FG interpreter and the System F evaluation of the translation
    compute the same first-order value — which is stronger than anything
    the paper claims, and a good differential oracle for both
    implementations. *)

open Fg_util
module F = Fg_systemf

type report = {
  fg_ty : Ast.ty;  (** τ: the FG type of the program *)
  elaborated : Ast.exp;
      (** the program with implicit instantiations made explicit *)
  f_exp : F.Ast.exp;  (** f: the translation *)
  f_ty : F.Ast.ty;  (** τ': the System F type of the translation *)
  expected_f_ty : F.Ast.ty;  (** the translation of τ *)
}

(** The theorem statement on an already-elaborated program: re-check the
    translation in System F and compare its type (up to alpha) against
    the translation of the FG type.  Factored out so drivers that
    obtained the elaboration some other way — a {!Session} checking
    against a cached prelude — run exactly the same verification.  A
    session passes the [prefix] its prelude's translation was checked
    as, so the re-check resumes after the prelude's [let]s. *)
let report_of_elaboration ?prefix
    ((fg_ty, elaborated, f_exp) : Ast.ty * Ast.exp * F.Ast.exp) : report =
  let f_ty = F.Typecheck.typecheck ?prefix f_exp in
  let expected_f_ty = Types.translate_ty (Env.create ()) fg_ty in
  if not (F.Ast.alpha_equal f_ty expected_f_ty) then
    Diag.error Diag.Translate
      "translation preserves typing FAILED:@ FG type %s@ translated type %s@ \
       but System F assigns %s"
      (Pretty.ty_to_string fg_ty)
      (F.Pretty.ty_to_string expected_f_ty)
      (F.Pretty.ty_to_string f_ty);
  { fg_ty; elaborated; f_exp; f_ty; expected_f_ty }

(** Check Theorem 1/2 on one closed program.  Raises a diagnostic if the
    program is ill-typed, if the translation fails to re-check in System
    F, or if the types disagree. *)
let check_translation ?resolution (e : Ast.exp) : report =
  report_of_elaboration (Check.elaborate ?resolution e)

let check_translation_result ?resolution e =
  Diag.protect (fun () -> check_translation ?resolution e)

type agreement = {
  direct : Interp.flat;  (** value from the direct FG interpreter *)
  translated : Interp.flat;  (** value from evaluating the translation *)
}

(** Check that the direct interpreter and the translation agree on the
    program's value (first-order part).  Requires the program to be
    well-typed; both evaluations share the same fuel bound. *)
let check_agreement ?resolution ?fuel (e : Ast.exp) : agreement =
  let report = check_translation ?resolution e in
  let direct = Interp.flatten (Interp.run_value ?fuel report.elaborated) in
  let translated = Interp.flatten_f (F.Eval.run_value ?fuel report.f_exp) in
  if not (Interp.flat_equal direct translated) then
    Diag.error Diag.Eval
      "semantic agreement FAILED: direct interpreter computed %s but the \
       translation computed %s"
      (Interp.flat_to_string direct)
      (Interp.flat_to_string translated);
  { direct; translated }

let check_agreement_result ?resolution ?fuel e =
  Diag.protect (fun () -> check_agreement ?resolution ?fuel e)
