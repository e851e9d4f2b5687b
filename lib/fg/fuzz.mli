(** Property-based fuzzing: a seeded, deterministic generator of
    well-typed-by-construction System FG programs, a greedy shrinker,
    a coverage-guided mutation mode, and a differential oracle harness
    over the paper's theorems.

    Every program is built from a {!Fg_util.Prng} stream split from a
    single integer seed — program [i] of a run is a pure function of
    [(seed, i, size)], independent of evaluation order and sibling
    programs — and exercises the whole Section 5/6 feature surface:
    refinement diamonds, associated types (including concept-level
    [same] pins), scoped and shadowing models, named models activated
    by [using], parameterized models at [list t], nested and
    multi-parameter [tfun … where] abstractions, implicit
    instantiation, member defaults and type aliases.

    Each candidate runs the recovering {!Session} pipeline once, in a
    fresh session, and three oracles read that run:

    - {b agreement} — a generated program is well typed by
      construction, so any rejection of it (a checker error, a
      Theorem 1/2 violation, or the direct interpreter and the
      evaluated translation disagreeing) is a failure;
    - {b roundtrip} — the pretty-printed source re-parses to the same
      AST ({!Ast.exp_equal}, locations ignored);
    - {b recovery} — a run must never crash nor reject without an error
      diagnostic, and deterministically corrupted variants must report
      diagnostics through the recovering pipeline: never crash, never
      succeed.

    {b Guided mode} ([guided = true], implied by [corpus_dir]) turns
    the run into a coverage search: each candidate — a mutation of a
    minimized corpus entry (declaration splice/drop, type-argument
    swap, model shadow/unshadow, where-clause add/drop), or a blind
    generation when the corpus is dry — is measured against the
    process-wide {!Fg_util.Coverage} map, and inputs that reach new
    decision points are minimized and admitted to the corpus.  The
    loop is strictly sequential, so the reported coverage map and the
    corpus contents are byte-identical across runs.  Generated
    candidates are judged exactly as in blind mode.  Corpus mutants
    need not be well typed: a rejection carrying error diagnostics is
    explored error space, and only crashes and silent rejections fail
    the oracle.

    Failures are minimized by a greedy shrinker (declaration deletion
    and subterm replacement, every candidate re-validated through the
    checker and the failing oracle) before being reported. *)

type config = {
  seed : int;  (** master seed; the whole run is a function of it *)
  count : int;  (** number of programs to generate *)
  size : int;  (** size budget per program (AST-node scale) *)
  mutants : int;  (** corrupted variants per program (recovery oracle) *)
  guided : bool;  (** coverage-guided mutation instead of blind generation *)
  corpus_dir : string option;
      (** on-disk corpus of minimized coverage-adding inputs (entries
          are [<md5-of-source>.fg], written atomically); implies
          [guided] *)
}

val default_config : config

(** Where a candidate came from: the blind generator, or a mutation of
    a corpus entry. *)
type origin = Gen | Corpus

val origin_name : origin -> string

type program = {
  p_index : int;  (** position in the run: stream [split_nth seed i] *)
  p_origin : origin;
  p_ast : Ast.exp;
  p_source : string;  (** pretty-printed concrete syntax *)
}

(** Generate program [index] of a run — pure and deterministic. *)
val generate : config -> index:int -> program

type oracle = Agreement | Roundtrip | Recovery

val oracle_name : oracle -> string

type failure = {
  f_index : int;  (** index of the generated program *)
  f_origin : origin;
  f_oracle : oracle;
  f_message : string;
  f_source : string;  (** the offending source (the mutant, for recovery) *)
  f_shrunk : string;  (** minimized source, still failing the oracle *)
  f_shrunk_nodes : int;  (** {!Ast.exp_size} of the minimized program *)
}

type report = {
  r_config : config;
  r_generated : int;
  r_mutants_run : int;
  r_failures : failure list;  (** in program order; empty on a clean run *)
  r_coverage : Fg_util.Coverage.map;
      (** guided: union of the per-candidate coverage deltas; blind: the
          whole-run snapshot delta (measured but never guided on, and
          kept out of the JSON report) *)
  r_corpus_size : int;  (** distinct corpus entries after the run *)
  r_corpus_added : int;  (** entries this run admitted *)
  r_from_corpus : int;  (** candidates that were corpus mutations *)
}

(** Run the whole harness: generate (or, guided, mutate) [config.count]
    programs, run each through the pipeline once, check the three
    oracles on that run, and shrink any failures.  Does not raise on
    oracle failures — they come back in the report. *)
val run : config -> report

(** Greedy shrink: repeatedly apply the smallest still-failing
    one-step rewrite (declaration deletion, subterm hoisting, literal
    replacement) until a fixpoint.  [still_fails] must hold of the
    initial program.  [fuel] bounds the number of candidate
    evaluations (default 1500; corpus admission uses a much smaller
    budget). *)
val shrink : ?fuel:int -> still_fails:(Ast.exp -> bool) -> Ast.exp -> Ast.exp

(** Load an on-disk corpus: the [(digest, source)] of every [*.fg]
    entry under [dir], sorted by digest ([] if [dir] is missing). *)
val corpus_load : dir:string -> (string * string) list

(** The stable machine-readable shape of a run (see docs/LANGUAGE.md):
    [{"fuzz": {"seed", "count", "size", "mutants"}, "generated",
    "mutants_run", "ok", "failures": [{"index", "oracle", "message",
    "source", "shrunk", "shrunk_nodes"}]}].  Guided runs additionally
    carry ["coverage"] ([distinct]/[total]/[map]) and ["corpus"]
    ([size]/[added]/[from_corpus]) objects, ["guided": true] in the
    config, and an ["origin"] field on corpus-mutant failures. *)
val report_to_json : report -> Fg_util.Json.t

(** Write each failure's shrunk and original sources under [dir] (as
    [fuzz-<seed>-<index>-<oracle>.fg] with the original attached in a
    trailing comment); returns the paths written, in report order.
    Creates [dir] if missing. *)
val save_failures : dir:string -> report -> string list
