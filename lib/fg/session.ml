(** Session-based driver (see the interface).

    The load-bearing pieces:

    - {!Unit.walk} drives every declaration spine — the prelude's, each
      program's, each {!extend} — through a content-hashed unit cache:
      a declaration is checked at most once per (content, dependency
      chain, environment family, supply position) and replayed from the
      cache everywhere else, byte-identically.  A batch job's spine is
      the exception: nothing could replay it, so it is walked without
      the cache unless a persistent store is attached;
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
    - {!run_batch} fans out over [Domain.spawn], one private session
      per domain (checker state — gensym, caches — is single-domain by
      design). *)

open Fg_util
module F = Fg_systemf

module Config = struct
  type t = {
    backend : Backend.t;
    resolution : Resolution.mode;
    escape_check : bool;
    prelude : string option;
    cache_dir : string option;
  }

  let default =
    {
      backend = Backend.Dict;
      resolution = Resolution.Lexical;
      escape_check = true;
      prelude = None;
      cache_dir = None;
    }

  let with_standard_prelude c = { c with prelude = Some Prelude.full }

  let of_flags ?cache_dir ~prelude ~global_models ~backend () =
    {
      default with
      backend;
      resolution =
        (if global_models then Resolution.Global else Resolution.Lexical);
      prelude = (if prelude then Some Prelude.full else None);
      cache_dir;
    }
end

type spec = {
  spec_exp : F.Ast.exp;
  spec_steps : int;
  spec_stats : F.Specialize.stats;
}

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
  spine : Unit.spine;
      (** the units whose scope [env] reflects: prelude then every
          [extend], in declaration order — their keys seed each
          program's dependency chain, and their dependency analysis,
          done once here, is what each program's analysis extends *)
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
   (innermost first), and the checked units.  The stack is parsed with
   a dummy [0] body; anything left over after the declaration spine
   means the text was not purely declarations. *)
let check_decl_stack cache ~spine env src ~file =
  let source = src ^ "\n0" in
  let ast =
    Telemetry.time Telemetry.Parse (fun () -> Parser.exp_of_string ~file source)
  in
  let w =
    Telemetry.time Telemetry.Check (fun () ->
        Unit.walk (Some cache) ~source ~spine env ast)
  in
  (match w.Unit.w_residual.Ast.desc with
  | Ast.Lit (Ast.LInt 0) -> ()
  | _ ->
      Diag.wf_error ~loc:w.Unit.w_residual.Ast.loc
        "session prelude must be a stack of declarations (found a \
         non-declaration before the end)");
  (w.Unit.w_env, w.Unit.w_frames, w.Unit.w_units)

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

(* A session's unit cache: the shared one, or a private one with the
   configured disk tier attached.  The tier goes on before the prelude
   walk so the prelude's own units persist too (and replay on warm
   runs). *)
let session_cache ?cache (cfg : Config.t) =
  match cache with
  | Some c -> c
  | None ->
      let c = Unit.create_cache () in
      (match cfg.Config.cache_dir with
      | None -> ()
      | Some dir ->
          Unit.set_stores c [ Unit.disk_store (Diskcache.open_store dir) ]);
      c

let check_config cache (cfg : Config.t) =
  let env0 =
    Env.create ~resolution:cfg.Config.resolution
      ~escape_check:cfg.Config.escape_check ()
  in
  let spine0 = Unit.empty_spine env0 in
  let env, frames, spine =
    match cfg.Config.prelude with
    | None -> (env0, [], spine0)
    | Some src ->
        Telemetry.record_prelude_build ();
        let env, frames, units =
          check_decl_stack cache ~spine:spine0 env0 src ~file:"<prelude>"
        in
        (env, frames, Unit.extend_spine spine0 units)
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
    spine;
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
  i_spine : Unit.spine;
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
        i_spine = t.spine;
        i_prefix = t.prefix;
      }
      []

  (* The loaded environment gets a family of its own: the image's was
     drawn from another process's supply and could equal one this
     process already uses.  Its units join the cache under that
     family, as a check would have left them. *)
  let load ?cache cfg bytes =
    let cache = session_cache ?cache cfg in
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
      spine = Unit.adopt cache i.i_spine env;
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

let of_config ?cache (cfg : Config.t) : t =
  match Image.find cfg with
  | Some bytes -> Image.load ?cache cfg bytes
  | None -> check_config (session_cache ?cache cfg) cfg

let config t = t.cfg

let backend t = t.cfg.Config.backend

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
  let env', frames', units =
    check_decl_stack t.cache ~spine:t.spine t.env decls ~file:"<decls>"
  in
  let spine = Unit.extend_spine t.spine units in
  (* A redefinition shadows earlier spine units; drop cached entries
     that depended on the shadowed definitions.  (Correctness does not
     need this — a dependent's key chains through its providers, so it
     would miss anyway — but the dead entries would otherwise sit in
     the cache until evicted, and the bump makes invalidation
     observable in the stats.)  The spine itself stays protected:
     shadowed units are still live history. *)
  let provided =
    List.fold_left
      (fun s (u : Unit.checked) ->
        Names.Sset.union u.Unit.ck_info.Declgraph.i_provides s)
      Names.Sset.empty units
  in
  let seeds =
    List.filter_map
      (fun (u : Unit.checked) ->
        if
          Names.Sset.is_empty
            (Names.Sset.inter u.Unit.ck_info.Declgraph.i_provides provided)
        then None
        else Some u.Unit.ck_key)
      (Unit.spine_units t.spine)
  in
  let protect =
    List.map (fun (u : Unit.checked) -> u.Unit.ck_key) (Unit.spine_units spine)
  in
  ignore (Unit.invalidate t.cache ~protect ~seeds);
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
    spine;
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
   re-checking an edited program re-checks only the units whose content
   or dependencies changed. *)
let check_source ?file ~cache t source =
  let ast = parse ?file source in
  rewind t;
  let triple =
    Telemetry.time Telemetry.Check (fun () ->
        Env.with_run t.env (fun () ->
            let w = Unit.walk cache ~source ~spine:t.spine t.env ast in
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

(* Specializing back end: partially evaluate the translation, then
   enforce the oracle — the specialized program must re-typecheck in
   System F at a type alpha-equal to the translation's and evaluate to
   the same flat value as the direct interpreter.  Either failure is a
   stable diagnostic (FG0502 / FG0503), not a silent divergence. *)
let specialized ?fuel ~backend ~direct ~translated_steps
    (report : Theorems.report) : spec option =
  match Backend.specialize_mode backend with
  | None -> None
  | Some mode ->
      let f_spec, stats =
        Telemetry.time Telemetry.Specialize (fun () ->
            F.Specialize.specialize ~mode report.Theorems.f_exp)
      in
      Telemetry.record_stencils_created stats.F.Specialize.st_stencils;
      Telemetry.record_stencils_shared stats.F.Specialize.st_shared;
      Telemetry.record_stencil_fallbacks stats.F.Specialize.st_fallbacks;
      Telemetry.record_dicts_hoisted stats.F.Specialize.st_hoisted;
      if not (F.Specialize.changed stats) then
        (* nothing to specialize: the translation is the stencil *)
        Some
          {
            spec_exp = report.Theorems.f_exp;
            spec_steps = translated_steps;
            spec_stats = stats;
          }
      else begin
        let spec_ty =
          Telemetry.time Telemetry.Verify (fun () ->
              F.Typecheck.typecheck f_spec)
        in
        if not (F.Ast.alpha_equal spec_ty report.Theorems.f_ty) then
          Diag.translate_error ~code:"FG0502"
            "specialized program has type %s but the translation has type %s"
            (F.Pretty.ty_to_string spec_ty)
            (F.Pretty.ty_to_string report.Theorems.f_ty);
        let v_spec, spec_steps =
          Telemetry.time Telemetry.Eval (fun () -> F.Eval.run ?fuel f_spec)
        in
        let spec_flat = Interp.flatten_f v_spec in
        if not (Interp.flat_equal direct spec_flat) then
          Diag.eval_error ~code:"FG0503"
            "direct interpreter computed %s but the specialized program \
             computed %s"
            (Interp.flat_to_string direct)
            (Interp.flat_to_string spec_flat);
        Some { spec_exp = f_spec; spec_steps; spec_stats = stats }
      end

(* Back half of the full pipeline, shared by [run] and [run_full]:
   theorem check (resumed after the session's checked prefix), both
   evaluations, agreement, and — off the Dict backend — specialization
   plus its oracle. *)
let complete ?fuel t ~source ~ast triple : outcome =
  let backend = t.cfg.Config.backend in
  let report =
    Telemetry.time Telemetry.Verify (fun () ->
        Theorems.report_of_elaboration ?prefix:t.prefix triple)
  in
  let (v_direct, direct_steps), (v_translated, translated_steps) =
    Telemetry.time Telemetry.Eval (fun () ->
        ( Interp.run_program ?fuel report.Theorems.elaborated,
          F.Eval.run ?fuel report.Theorems.f_exp ))
  in
  let direct = Interp.flatten v_direct in
  let translated = Interp.flatten_f v_translated in
  if not (Interp.flat_equal direct translated) then
    Diag.error Diag.Eval
      "direct interpreter computed %s but the translation computed %s"
      (Interp.flat_to_string direct)
      (Interp.flat_to_string translated);
  let spec = specialized ?fuel ~backend ~direct ~translated_steps report in
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
    backend;
    spec;
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
   report, plus the recovering parse and the walked declaration log. *)
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
              ~spine:t.spine t.env ast)
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
      ({ outcome; diagnostics = Diag.diagnostics engine }, ast, w.Unit.w_decls))

let run_full ?(file = "<program>") ?fuel t source : run_report =
  let report, _, _ = run_full_impl ~file ?fuel t source in
  report

(* The workspace entry point: exactly [run_full] — same recovering
   parse, same walk, same diagnostics, so its report renders
   byte-identically — but it also hands back the parsed program, the
   walked declaration log and every position-index entry recorded
   while checking.  Replayed (cache-hit) declarations record no
   entries; the caller rebases the entries it saved when their unit
   was first checked. *)
type indexed_run = {
  ix_report : run_report;
  ix_ast : Ast.exp;
  ix_decls : (Ast.exp * string * Unit.decl_outcome) list;
  ix_entries : Check.index_entry list;  (** in recording order *)
}

let run_indexed ?(file = "<program>") ?fuel t source : indexed_run =
  let entries = ref [] in
  let report, ast, decls =
    Check.with_index_sink
      (fun e -> entries := e :: !entries)
      (fun () -> run_full_impl ~file ?fuel t source)
  in
  {
    ix_report = report;
    ix_ast = ast;
    ix_decls = decls;
    ix_entries = List.rev !entries;
  }

(* ---------------------------------------------------------------- *)
(* Parallel batch verification                                       *)

let default_domains () = max 1 (Domain.recommended_domain_count ())

let run_batch ?domains ?fuel t (jobs : (string * string) list) :
    (string * (outcome, Diag.diagnostic) result) list =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let domains =
    let d = match domains with Some d -> d | None -> default_domains () in
    max 1 (min d (max 1 n))
  in
  let results = Array.make n None in
  (* A batch runs each job once, under the job's own file name, and a
     unit's key includes the file: no unit a batch inserts could ever be
     read back in this process.  So jobs skip the unit cache (its
     dependency analysis, keys and inserts) unless a persistent tier
     can hand the units to a later process. *)
  let keyed = Unit.persistent t.cache in
  (* One job's result.  Any exception besides a diagnostic (a stack
     overflow on a deeply nested program, say) is this job's internal
     error: the other jobs still run and report. *)
  let job t_local name source =
    let cache = if keyed then Some t_local.cache else None in
    match
      let ast, triple = check_source ~file:name ~cache t_local source in
      complete ?fuel t_local ~source ~ast triple
    with
    | o -> Ok o
    | exception Diag.Error d -> Error d
    | exception exn ->
        Error
          (Diag.make Diag.Internal
             ("uncaught exception while running this program: "
             ^ Printexc.to_string exn))
  in
  (* Strided work split: domain d takes jobs d, d+domains, ...  Writes
     land on disjoint indices, so the array needs no lock; outcomes are
     per-program deterministic (the supply is rewound before each), so
     the assembled list is identical for every domain count. *)
  let work t_local first =
    let i = ref first in
    while !i < n do
      let name, source = jobs.(!i) in
      results.(!i) <- Some (name, job t_local name source);
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
         | None -> Diag.ice "run_batch: unfilled result slot")
       results)

(* ---------------------------------------------------------------- *)
(* Observability                                                     *)

let stats t = Telemetry.diff (Telemetry.snapshot ()) t.created
let cache_stats t = Unit.stats t.cache
let memo_entries t = Env.memo_entries t.env
