(** Session-based driver (see the interface).

    The load-bearing pieces:

    - {!Unit.walk} drives every declaration spine — the prelude's, each
      program's, each {!extend} — through a unit cache keyed by lexical
      prefix: a declaration is checked at most once per (source prefix,
      environment family, supply position) and replayed from the cache
      everywhere else, byte-identically.  A batch job's spine is the
      exception: nothing could replay it, so it is walked without the
      cache;
    - {!Fg_util.Gensym.mark}/[restore] rewind the fresh-name supply to
      its post-prelude position before every program, so a session's
      output for a program is identical to a standalone run's and
      independent of serving order;
    - the memo (model resolution and concept queries) and the
      congruence closure live in the shared environment: what the
      prelude and {!extend} record stays warm across programs, and what
      a program records goes to a run tier dropped when it is done
      (scope generations keep per-program extensions from contaminating
      each other, and a program's entries could never hit again);
    - {!map_batch} fans out over [Domain.spawn], one private session
      per domain (checker state — gensym, caches — is single-domain by
      design), and keeps of each job only what its caller projects. *)

open Fg_util
module F = Fg_systemf

module Config = struct
  type t = {
    resolution : Resolution.mode;
    escape_check : bool;
    prelude : string option;
  }

  let default =
    {
      resolution = Resolution.Lexical;
      escape_check = true;
      prelude = None;
    }

  let with_standard_prelude c = { c with prelude = Some Prelude.full }

  let of_flags ~prelude ~global_models () =
    {
      default with
      resolution =
        (if global_models then Resolution.Global else Resolution.Lexical);
      prelude = (if prelude then Some Prelude.full else None);
    }
end

type spec = |

type outcome = {
  source : string;
  ast : Ast.exp;
  fg_ty : Ast.ty;
  f_exp : F.Ast.exp;
  f_ty : F.Ast.ty;
  theorem_holds : bool;
  value : Interp.flat;
  direct_steps : int;
  translated_steps : int;
  backend : Backend.t;
  spec : spec option;
}

type t = {
  cfg : Config.t;  (** creation-time configuration (prelude tracks
                       {!extend}, so batch domains and servers can
                       rebuild an equivalent session from it) *)
  env : Env.t;  (** the post-prelude environment *)
  frames : Check.frame list;
      (** the prelude's declaration frames, innermost first:
          {!Unit.unwind} embeds a checked body into the prelude's
          results *)
  mark : int;  (** fresh-name supply position after the prelude *)
  globals_mark : (string * Ast.ty list) list;
      (** the Global-ablation overlap set after the prelude *)
  cache : Unit.cache;  (** compilation-unit cache (possibly shared) *)
  chain : string;
      (** the pkey of the last unit [env] reflects (prelude then every
          [extend]): each program's first declaration chains to it *)
  prefix : F.Typecheck.prefix option;
      (** the [let]s [frames] put around every program's translation,
          typechecked once in System F: each theorem re-check resumes
          after them ([None] if they do not typecheck) *)
  created : Telemetry.snapshot;
}

(* ---------------------------------------------------------------- *)
(* Construction                                                      *)

(* Check a declaration stack on top of [env] through the unit cache,
   returning the extended environment, the declarations' frames
   (innermost first), and the chain pkey after them.  The stack is
   parsed with a dummy [0] body; anything left over after the
   declaration spine means the text was not purely declarations. *)
let check_decl_stack cache ~chain env src ~file =
  let source = src ^ "\n0" in
  let ast =
    Telemetry.time Telemetry.Parse (fun () -> Parser.exp_of_string ~file source)
  in
  let w =
    Telemetry.time Telemetry.Check (fun () ->
        Unit.walk (Some cache) ~source ~chain env ast)
  in
  (match w.Unit.w_residual.Ast.desc with
  | Ast.Lit (Ast.LInt 0) -> ()
  | _ ->
      Diag.wf_error ~loc:w.Unit.w_residual.Ast.loc
        "session prelude must be a stack of declarations (found a \
         non-declaration before the end)");
  (w.Unit.w_env, w.Unit.w_frames, w.Unit.w_chain)

(* The lets [frames] put around every program's translation, checked
   once: the frames wrapped around a hole no FG program can name.  A
   frame builds its let around the right-hand side translated when its
   declaration was checked, so every program's translation shares
   those right-hand sides physically and its re-check resumes after
   them.  A type alias's frame rebuilds everything under it (checked
   in full every time) and draws fresh names, so the supply goes back
   to [mark].  A prelude whose translation does not typecheck keeps
   no prefix, and every program reports the diagnostic. *)
let translation_prefix env ~mark frames =
  let hole = "<hole>" in
  let prefix =
    Diag.protect (fun () ->
        let _, _, f =
          Unit.unwind frames
            (Ast.TBase Ast.TUnit, Ast.var hole, F.Ast.var hole)
        in
        F.Typecheck.check_prefix ~hole f)
  in
  Gensym.restore env.Env.gensym mark;
  Result.to_option prefix

let check_config cache (cfg : Config.t) =
  let env0 =
    Env.create ~resolution:cfg.Config.resolution
      ~escape_check:cfg.Config.escape_check ()
  in
  let env, frames, chain =
    match cfg.Config.prelude with
    | None -> (env0, [], "")
    | Some src ->
        Telemetry.record_prelude_build ();
        check_decl_stack cache ~chain:"" env0 src ~file:"<prelude>"
  in
  let mark = Gensym.mark env.Env.gensym in
  let prefix = translation_prefix env ~mark frames in
  {
    cfg;
    env;
    frames;
    mark;
    globals_mark = !(env.Env.global_models);
    cache;
    chain;
    prefix;
    created = Telemetry.snapshot ();
  }

(* ---------------------------------------------------------------- *)
(* Prelude images                                                    *)

(* What checking a prelude leaves in a session, as one value.  A
   single marshalled value keeps the sharing between the frames'
   right-hand sides and [i_prefix] that the resumed re-check relies
   on; nothing in it is a function, so it marshals without
   [Marshal.Closures] and unmarshalling never digests the code. *)
type image = {
  i_env : Env.t;
  i_frames : Check.frame list;
  i_mark : int;
  i_globals : (string * Ast.ty list) list;
  i_chain : string;
  i_prefix : F.Typecheck.prefix option;
}

module Image = struct
  let installed : (Resolution.mode * string) list Atomic.t = Atomic.make []

  let make cfg =
    let t = check_config (Unit.create_cache ()) cfg in
    Marshal.to_string
      {
        i_env = t.env;
        i_frames = t.frames;
        i_mark = t.mark;
        i_globals = t.globals_mark;
        i_chain = t.chain;
        i_prefix = t.prefix;
      }
      []

  (* The loaded environment gets a family of its own: the image's was
     drawn from another process's supply and could equal one this
     process already uses.  No walk could replay the prelude's units
     under a family no walk has used, so none join the cache. *)
  let load ?(cache = Unit.create_cache ()) cfg bytes =
    Telemetry.record_prelude_build ();
    let i : image = Marshal.from_string bytes 0 in
    let env = Env.with_fresh_family i.i_env in
    {
      cfg;
      env;
      frames = i.i_frames;
      mark = i.i_mark;
      globals_mark = i.i_globals;
      cache;
      chain = i.i_chain;
      prefix = i.i_prefix;
      created = Telemetry.snapshot ();
    }

  let install mode bytes =
    Atomic.set installed
      ((mode, bytes) :: List.remove_assoc mode (Atomic.get installed))

  (* Installed images stand for the standard prelude under the default
     escape check only; every other configuration is checked. *)
  let find (cfg : Config.t) =
    match cfg.Config.prelude with
    | Some p when cfg.Config.escape_check && String.equal p Prelude.full ->
        List.assoc_opt cfg.Config.resolution (Atomic.get installed)
    | _ -> None
end

let of_config ?(cache = Unit.create_cache ()) (cfg : Config.t) : t =
  match Image.find cfg with
  | Some bytes -> Image.load ~cache cfg bytes
  | None -> check_config cache cfg

let config t = t.cfg

module Table = struct
  type session = t

  type nonrec t = {
    cache : Unit.cache;
    mutable sessions : (Config.t * session) list;
  }

  let create cache = { cache; sessions = [] }

  let find tbl cfg =
    match List.assoc_opt cfg tbl.sessions with
    | Some s -> s
    | None ->
        let s = of_config ~cache:tbl.cache cfg in
        tbl.sessions <- (cfg, s) :: tbl.sessions;
        s
end

let extend t decls =
  (* Rewind the supply first so extension points do not depend on how
     many programs the session has served. *)
  Gensym.restore t.env.Env.gensym t.mark;
  t.env.Env.global_models := t.globals_mark;
  let env', frames', chain =
    check_decl_stack t.cache ~chain:t.chain t.env decls ~file:"<decls>"
  in
  let frames = frames' @ t.frames in
  let mark = Gensym.mark env'.Env.gensym in
  let prefix = translation_prefix env' ~mark frames in
  {
    t with
    cfg =
      {
        t.cfg with
        Config.prelude =
          Some
            (Option.fold ~none:decls ~some:(fun p -> p ^ "\n" ^ decls)
               t.cfg.Config.prelude);
      };
    env = env';
    frames;
    mark;
    globals_mark = !(env'.Env.global_models);
    chain;
    prefix;
  }

let extend_result t decls = Diag.protect (fun () -> extend t decls)

(* ---------------------------------------------------------------- *)
(* Per-program checking                                              *)

(* Reset the per-program mutable state the shared environment carries:
   the fresh-name supply and the Global ablation's overlap set go back
   to their post-prelude positions, so program N+1 sees exactly the
   state program 1 saw. *)
let rewind t =
  Gensym.restore t.env.Env.gensym t.mark;
  t.env.Env.global_models := t.globals_mark;
  Telemetry.record_program ();
  if t.cfg.Config.prelude <> None then Telemetry.record_prelude_reuse ()

let parse ?(file = "<program>") source =
  Telemetry.time Telemetry.Parse (fun () -> Parser.exp_of_string ~file source)

(* Parse and check one program under the session environment, returning
   the program's own AST and the whole-program (prelude-wrapped)
   elaboration triple.  The program's declaration spine goes through
   [cache] (the session's unit cache unless a batch says otherwise):
   re-checking an edited program re-checks the edited declaration and
   every one after it. *)
let check_source ?file ~cache t source =
  let ast = parse ?file source in
  rewind t;
  let triple =
    Telemetry.time Telemetry.Check (fun () ->
        Env.with_run t.env (fun () ->
            let w = Unit.walk cache ~source ~chain:t.chain t.env ast in
            Unit.unwind t.frames
              (Unit.unwind w.Unit.w_frames
                 (Check.check w.Unit.w_env w.Unit.w_residual))))
  in
  (ast, triple)

let elaborate ?file t source =
  snd (check_source ?file ~cache:(Some t.cache) t source)

let typecheck ?file t source =
  let ty, _, _ = elaborate ?file t source in
  ty

let translate ?file t source =
  let _, _, f = elaborate ?file t source in
  f

let verify ?file t source =
  let triple = elaborate ?file t source in
  Telemetry.time Telemetry.Verify (fun () ->
      Theorems.report_of_elaboration ?prefix:t.prefix triple)

(* Back half of the full pipeline, shared by [run] and [run_full]:
   theorem check (resumed after the session's checked prefix), both
   evaluations and agreement. *)
let complete ?fuel t ~source ~ast triple : outcome =
  let report =
    Telemetry.time Telemetry.Verify (fun () ->
        Theorems.report_of_elaboration ?prefix:t.prefix triple)
  in
  (* The translation runs first: OCaml leaves the evaluation order of a
     tuple's components unspecified, and under [fuel] the order decides
     which evaluator's FG0601 a program that runs out reports. *)
  let (v_direct, direct_steps), (v_translated, translated_steps) =
    Telemetry.time Telemetry.Eval (fun () ->
        let translated = F.Eval.run ?fuel report.Theorems.f_exp in
        let direct = Interp.run_program ?fuel report.Theorems.elaborated in
        (direct, translated))
  in
  let direct = Interp.flatten v_direct in
  let translated = Interp.flatten_f v_translated in
  if not (Interp.flat_equal direct translated) then
    Diag.error Diag.Eval
      "direct interpreter computed %s but the translation computed %s"
      (Interp.flat_to_string direct)
      (Interp.flat_to_string translated);
  {
    source;
    ast;
    fg_ty = report.Theorems.fg_ty;
    f_exp = report.Theorems.f_exp;
    f_ty = report.Theorems.f_ty;
    theorem_holds = true;
    value = direct;
    direct_steps;
    translated_steps;
    backend = Backend.Dict;
    spec = None;
  }

let run ?file ?fuel t source : outcome =
  let ast, triple = check_source ?file ~cache:(Some t.cache) t source in
  complete ?fuel t ~source ~ast triple

let run_result ?file ?fuel t source =
  Diag.protect (fun () -> run ?file ?fuel t source)

type run_report = {
  outcome : outcome option;
  diagnostics : Diag.diagnostic list;
}

(* The recovering pipeline behind [run_full] and [run_indexed]: the
   report, plus the recovering parse. *)
let run_full_impl ~file ?fuel t source =
  let engine = Diag.engine () in
  (* Route warnings raised anywhere under this run (the environment's
     sink) into the same engine as the recovered errors. *)
  let saved = !(t.env.Env.diag) in
  t.env.Env.diag := engine;
  Fun.protect
    ~finally:(fun () -> t.env.Env.diag := saved)
    (fun () ->
      Env.with_run t.env @@ fun () ->
      let ast, dropped =
        Telemetry.time Telemetry.Parse (fun () ->
            Parser.exp_of_string_recovering ~engine ~file source)
      in
      rewind t;
      let poisoned = Names.Sset.of_list dropped in
      let w =
        Telemetry.time Telemetry.Check (fun () ->
            Unit.walk ~recover:engine ~poisoned (Some t.cache) ~source
              ~chain:t.chain t.env ast)
      in
      let poisoned = w.Unit.w_poisoned in
      (* The residual body is checked even when declarations failed, so
         its own independent errors surface in the same invocation;
         references to poisoned bindings are suppressed as cascades. *)
      let triple =
        match
          Telemetry.time Telemetry.Check (fun () ->
              Unit.unwind t.frames
                (Unit.unwind w.Unit.w_frames
                   (Check.check w.Unit.w_env w.Unit.w_residual)))
        with
        | triple -> Some triple
        | exception Diag.Error d ->
            if not (Check.is_cascade poisoned d) then Diag.report engine d;
            None
      in
      let outcome =
        match triple with
        | Some triple when not (Diag.has_errors engine) ->
            Diag.capture engine (fun () -> complete ?fuel t ~source ~ast triple)
        | _ -> None
      in
      ({ outcome; diagnostics = Diag.diagnostics engine }, ast))

let run_full ?(file = "<program>") ?fuel t source : run_report =
  fst (run_full_impl ~file ?fuel t source)

(* The workspace entry point: exactly [run_full] — same recovering
   parse, same walk, same diagnostics, so its report renders
   byte-identically — but it also hands back the parsed program and
   every position-index entry recorded while checking it (a replayed
   unit passes on the entries its check recorded). *)
type indexed_run = {
  ix_report : run_report;
  ix_ast : Ast.exp;
  ix_entries : Check.index_entry list;  (** in recording order *)
}

let run_indexed ?(file = "<program>") ?fuel t source : indexed_run =
  let entries = ref [] in
  let report, ast =
    Check.with_index_sink
      (fun e -> entries := e :: !entries)
      (fun () -> run_full_impl ~file ?fuel t source)
  in
  { ix_report = report; ix_ast = ast; ix_entries = List.rev !entries }

(* ---------------------------------------------------------------- *)
(* Parallel batch verification                                       *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

let internal_error exn =
  Diag.make Diag.Internal
    ("uncaught exception while running this program: "
    ^ Printexc.to_string exn)

let map_batch ?domains ?fuel t (jobs : (string * string) list) f =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let domains =
    let d = match domains with Some d -> d | None -> default_domains () in
    max 1 (min d (max 1 n))
  in
  let results = Array.make n None in
  (* One job's result.  A batch runs each job once, under the job's own
     file name, and a unit's key includes the file: no unit a job could
     insert would ever be read back.  So jobs skip the unit cache (its
     keys and inserts).  Any exception besides a
     diagnostic (a stack overflow on a deeply nested program, say) is
     this job's internal error: the other jobs still run and report. *)
  let job t_local name source =
    match
      let ast, triple = check_source ~file:name ~cache:None t_local source in
      complete ?fuel t_local ~source ~ast triple
    with
    | o -> Ok o
    | exception Diag.Error d -> Error d
    | exception exn -> Error (internal_error exn)
  in
  (* Strided work split: domain d takes jobs d, d+domains, ...  Writes
     land on disjoint indices, so the array needs no lock; outcomes are
     per-program deterministic (the supply is rewound before each), so
     the assembled list is identical for every domain count.  Each
     outcome goes to [f] as soon as its job ends and only what [f]
     returns is kept: the job's AST and translation are garbage before
     the domain's next job starts. *)
  let work t_local first =
    let i = ref first in
    while !i < n do
      let name, source = jobs.(!i) in
      results.(!i) <- Some (f name (job t_local name source));
      i := !i + domains
    done
  in
  if domains = 1 then work t 0
  else begin
    let spawned =
      List.init (domains - 1) (fun k ->
          Domain.spawn (fun () ->
              (* Each spawned domain gets its own session and unit
                 cache: the cache's table is single-writer by design. *)
              work (of_config t.cfg) (k + 1)))
    in
    work t 0;
    List.iter Domain.join spawned
  end;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> Diag.ice "map_batch: unfilled result slot")
       results)

let run_batch ?domains ?fuel t jobs =
  map_batch ?domains ?fuel t jobs (fun name r -> (name, r))

(* ---------------------------------------------------------------- *)
(* Observability                                                     *)

let stats t = Telemetry.diff (Telemetry.snapshot ()) t.created
let cache_stats t = Unit.stats t.cache
let memo_entries t = Env.memo_entries t.env
