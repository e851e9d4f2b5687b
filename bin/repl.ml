(* An interactive read-eval-print loop for System FG, driven by a
   {!Fg_core.Session}.

   Declarations (concept / model / type alias / let) accumulate by
   extending the session — each is checked once, when committed, and
   never re-checked; expressions run through the full pipeline (check,
   translate, verify, evaluate both ways) against the session's cached
   scope.

   Commands:
     :help              this message
     :quit              leave
     :type EXPR         show the FG type without evaluating
     :translate EXPR    show the System F translation
     :prelude           load the standard prelude into scope
     :show              list the declarations in scope
     :stats             session telemetry (phase times, cache counters)
     :clear             drop all declarations
   Anything else is FG: a declaration (no trailing 'in') or an
   expression.  Multi-line input is supported — the REPL keeps reading
   while the parse is incomplete. *)

module C = Fg_core

type state = {
  mutable session : C.Session.t;
  mutable decls : string list;  (** reversed accumulated declarations *)
  mutable prelude_loaded : bool;
}

let contains = Fg_util.Strutil.contains

(* One shared decl-boundary scanner (lib/syntax/declscan.ml) serves the
   REPL, the recovering parser and the workspace document splitter. *)
let is_decl_start = Fg_syntax.Declscan.is_decl_start

(* A parse failure at end of input means "keep typing" — except the
   one a complete declaration produces (the parser reaching the end
   while expecting the body's [in], which we add ourselves). *)
let incomplete_parse src ~as_decl =
  match Fg_util.Diag.protect (fun () -> C.Parser.exp_of_string src) with
  | Ok _ -> false
  | Error d ->
      d.phase = Fg_util.Diag.Parser
      && contains ~needle:"end of input" d.message
      && not (as_decl && contains ~needle:"expected keyword 'in'" d.message)

let print_error d = Fmt.pr "error: %a@." Fg_util.Diag.pp d

let commit_decl st text =
  (* Extend the session: the new declaration is checked on top of the
     cached scope; on failure the session is unchanged. *)
  match C.Session.extend_result st.session (text ^ " in") with
  | Ok session ->
      st.session <- session;
      st.decls <- (text ^ " in") :: st.decls;
      Fmt.pr "defined.@."
  | Error d -> print_error d

let eval_expr st text =
  (* Recovering pipeline: every independent error (and any warnings)
     prints before the value — or instead of it, when errors exist. *)
  let report = C.Session.run_full ~file:"<repl>" st.session text in
  List.iter
    (fun d -> Fmt.pr "%a@." Fg_util.Diag.pp d)
    report.C.Session.diagnostics;
  match report.C.Session.outcome with
  | Some out ->
      Fmt.pr "- : %a = %a@." C.Pretty.pp_ty out.fg_ty C.Interp.pp_flat
        out.value
  | None -> ()

(* :type / :translate disable the CPT escape check, so generic values
   whose types mention locally declared concepts can be inspected; that
   needs a session configured without the check, built on demand from
   the accumulated scope. *)
let relaxed_session st =
  let prelude =
    match List.rev st.decls with
    | [] -> None
    | ds -> Some (String.concat "\n" ds)
  in
  C.Session.of_config
    { C.Session.Config.default with escape_check = false; prelude }

let show_type st text =
  match
    Fg_util.Diag.protect (fun () ->
        C.Session.typecheck ~file:"<repl>" (relaxed_session st) text)
  with
  | Ok ty -> Fmt.pr "- : %a@." C.Pretty.pp_ty ty
  | Error d -> print_error d

let show_translation st text =
  match
    Fg_util.Diag.protect (fun () ->
        C.Session.translate ~file:"<repl>" (relaxed_session st) text)
  with
  | Ok f -> Fmt.pr "%a@." Fg_systemf.Pretty.pp_exp f
  | Error d -> print_error d

let load_prelude st =
  if st.prelude_loaded then Fmt.pr "prelude already loaded.@."
  else begin
    (* strip the final newline; each fragment already ends in "in" *)
    let text = String.trim C.Prelude.full in
    match C.Session.extend_result st.session text with
    | Error d -> print_error d
    | Ok session ->
        st.session <- session;
        st.decls <- text :: st.decls;
        st.prelude_loaded <- true;
        Fmt.pr
          "prelude loaded: Eq, Ord, Semigroup, Monoid, Group, Iterator, \
           OutputIterator, Container; models for int/bool/lists; accumulate, \
           count, contains, copy, min_element, equal_ranges, merge, power, \
           ...@."
  end

let show_stats st =
  Fmt.pr "%a@." Fg_util.Telemetry.pp (C.Session.stats st.session)

let help () =
  Fmt.pr
    ":help, :quit, :type EXPR, :translate EXPR, :prelude, :show, :stats, \
     :clear@.\
     declarations (concept/model/type/let, no trailing 'in') accumulate;@.\
     expressions run through the full pipeline.@."

(* Read one logical input (possibly multi-line). *)
let read_input () =
  Fmt.pr "fg> %!";
  match In_channel.input_line stdin with
  | None -> None
  | Some first ->
      let buf = Buffer.create 64 in
      Buffer.add_string buf first;
      let as_decl = is_decl_start (String.trim first) in
      let rec more () =
        let text = Buffer.contents buf in
        if String.trim text = "" then Some text
        else if
          (not (String.length (String.trim text) > 0 && text.[0] = ':'))
          && incomplete_parse text ~as_decl
        then begin
          Fmt.pr "  > %!";
          match In_channel.input_line stdin with
          | None -> Some text
          | Some line ->
              Buffer.add_char buf '\n';
              Buffer.add_string buf line;
              more ()
        end
        else Some text
      in
      more ()

let main () =
  Fmt.pr "System FG interactive (PLDI 2005 reproduction). :help for help.@.";
  let st =
    { session = C.Session.of_config C.Session.Config.default;
      decls = []; prelude_loaded = false }
  in
  let rec loop () =
    match read_input () with
    | None -> Fmt.pr "@."
    | Some raw ->
        let text = String.trim raw in
        (if text = "" then ()
         else if text = ":quit" || text = ":q" then raise Exit
         else if text = ":help" then help ()
         else if text = ":prelude" then load_prelude st
         else if text = ":stats" then show_stats st
         else if text = ":clear" then begin
           st.session <- C.Session.of_config C.Session.Config.default;
           st.decls <- [];
           st.prelude_loaded <- false;
           Fmt.pr "cleared.@."
         end
         else if text = ":show" then
           List.iter (fun d -> Fmt.pr "%s@." d) (List.rev st.decls)
         else if String.length text > 6 && String.sub text 0 6 = ":type " then
           show_type st (String.sub text 6 (String.length text - 6))
         else if
           String.length text > 11 && String.sub text 0 11 = ":translate "
         then show_translation st (String.sub text 11 (String.length text - 11))
         else if text.[0] = ':' then Fmt.pr "unknown command; :help@."
         else if is_decl_start text then commit_decl st text
         else eval_expr st text);
        loop ()
  in
  try loop () with Exit -> ()
