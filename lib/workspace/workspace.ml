(** Workspace language service (see the interface).

    Layout: one mutex serializes every operation; under it live the
    document table and the per-configuration warm sessions (all sharing
    one compilation-unit cache, exactly like a server worker).  A
    document's position index is rebuilt from each check's entries:
    a replayed unit hands back the entries its check recorded, which
    hold the same offsets because a unit's key covers the whole source
    before its end, so nothing needs rebasing and the unit cache's
    bound is the only one the index's material needs. *)

open Fg_util
module C = Fg_core
module Ast = Fg_core.Ast

type ws_error = { ws_code : string; ws_msg : string }
type edit = { e_start : int; e_len : int; e_text : string }
type change = Full_text of string | Edits of edit list

(* ---------------------------------------------------------------- *)
(* Position index                                                    *)

(* One indexed span, with the byte extent denormalized out of the Loc
   ([q_end] widens zero-width spans to one byte, as {!Loc.contains}
   does) and the recording sequence number for tie-breaks. *)
type ixq = {
  q_start : int;
  q_end : int;
  q_seq : int;
  q_entry : C.Check.index_entry;
}

type index = {
  ix_arr : ixq array;  (** sorted by [q_start], then [q_seq] *)
  ix_prefix_max_end : int array;
      (** [ix_prefix_max_end.(i)] = max [q_end] over [ix_arr.(0..i)] —
          lets a containment query stop scanning backwards as soon as
          no earlier span can still reach the offset *)
}

let entry_loc = function
  | C.Check.Itype (l, _) -> l
  | C.Check.Imodel (l, _, _) -> l

let index_of_entries entries =
  let arr =
    entries
    |> List.filter (fun (_, e) -> not (Loc.is_dummy (entry_loc e)))
    |> List.map (fun (seq, e) ->
           let l = entry_loc e in
           let s = l.Loc.start_pos.Loc.offset in
           {
             q_start = s;
             q_end = max l.Loc.end_pos.Loc.offset (s + 1);
             q_seq = seq;
             q_entry = e;
           })
    |> Array.of_list
  in
  Array.sort
    (fun a b ->
      match compare a.q_start b.q_start with
      | 0 -> compare a.q_seq b.q_seq
      | c -> c)
    arr;
  let pmax = Array.make (Array.length arr) 0 in
  let running = ref 0 in
  Array.iteri
    (fun i q ->
      running := max !running q.q_end;
      pmax.(i) <- !running)
    arr;
  { ix_arr = arr; ix_prefix_max_end = pmax }

(* All entries containing [offset]: binary-search the rightmost entry
   starting at or before the offset, then walk left while the prefix
   maximum says a containing span may still exist. *)
let index_query ix ~offset =
  let arr = ix.ix_arr in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    (* rightmost i with arr.(i).q_start <= offset, or -1 *)
    let lo = ref (-1) and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if arr.(mid).q_start <= offset then lo := mid else hi := mid - 1
    done;
    let last = if !lo >= 0 && arr.(!lo).q_start <= offset then !lo else -1 in
    let acc = ref [] in
    let i = ref last in
    while !i >= 0 && ix.ix_prefix_max_end.(!i) > offset do
      let q = arr.(!i) in
      if q.q_start <= offset && offset < q.q_end then acc := q :: !acc;
      decr i
    done;
    !acc
  end

(* Smallest span wins; equal spans go to the last-recorded entry. *)
let best_of = function
  | [] -> None
  | qs ->
      Some
        (List.fold_left
           (fun best q ->
             let w b = b.q_end - b.q_start in
             if
               w q < w best
               || (w q = w best && q.q_seq > best.q_seq)
             then q
             else best)
           (List.hd qs) (List.tl qs))

(* ---------------------------------------------------------------- *)
(* Documents and the workspace                                       *)

type doc = {
  d_name : string;
  mutable d_version : int;
  mutable d_text : string;
  d_cfg : C.Session.Config.t;
  mutable d_payload : string;  (** rendered run-report JSON *)
  mutable d_ast : Ast.exp;  (** recovering parse of [d_text] *)
  mutable d_index : index;
}

type t = {
  m : Mutex.t;
  fuel : int option;
  cache : C.Unit.cache;  (** shared by every session below *)
  sessions : C.Session.Table.t;
  docs : (string, doc) Hashtbl.t;
  h_open : Telemetry.Histogram.t;
  h_change : Telemetry.Histogram.t;
  h_close : Telemetry.Histogram.t;
  h_diagnostics : Telemetry.Histogram.t;
  h_hover : Telemetry.Histogram.t;
  h_definition : Telemetry.Histogram.t;
  h_completion : Telemetry.Histogram.t;
}

let create ?fuel () =
  let cache = C.Unit.create_cache () in
  {
    m = Mutex.create ();
    fuel;
    cache;
    sessions = C.Session.Table.create cache;
    docs = Hashtbl.create 16;
    h_open = Telemetry.Histogram.create ();
    h_change = Telemetry.Histogram.create ();
    h_close = Telemetry.Histogram.create ();
    h_diagnostics = Telemetry.Histogram.create ();
    h_hover = Telemetry.Histogram.create ();
    h_definition = Telemetry.Histogram.create ();
    h_completion = Telemetry.Histogram.create ();
  }

let unknown_doc name =
  {
    ws_code = "FG0807";
    ws_msg = Printf.sprintf "unknown document %S (open it first)" name;
  }

(* ---------------------------------------------------------------- *)
(* Checking a document version                                       *)

(* Check [doc.d_text], update payload, AST and index.  The entries
   come in recording order, which the hover tie-break reads. *)
let check_doc t doc =
  let sess = C.Session.Table.find t.sessions doc.d_cfg in
  let ir =
    C.Session.run_indexed ~file:doc.d_name ?fuel:t.fuel sess doc.d_text
  in
  doc.d_payload <-
    Json.to_string
      (C.Jsonview.json_of_run_report ~file:doc.d_name ir.C.Session.ix_report);
  doc.d_ast <- ir.C.Session.ix_ast;
  doc.d_index <-
    index_of_entries (List.mapi (fun i e -> (i, e)) ir.C.Session.ix_entries)

(* ---------------------------------------------------------------- *)
(* Lifecycle                                                         *)

let timed hist t f =
  Mutex.lock t.m;
  let t0 = Telemetry.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Histogram.observe hist (Telemetry.now_ns () - t0);
      Mutex.unlock t.m)
    f

let with_doc t name f =
  match Hashtbl.find_opt t.docs name with
  | None -> Error (unknown_doc name)
  | Some doc -> f doc

let open_doc t ~name ~version ~prelude ~global_models ~backend text =
  timed t.h_open t (fun () ->
      let cfg =
        C.Session.Config.of_flags ~prelude ~global_models ~backend ()
      in
      let doc =
        match Hashtbl.find_opt t.docs name with
        | Some d when d.d_cfg = cfg ->
            d.d_version <- version;
            d.d_text <- text;
            d
        | _ ->
            let d =
              {
                d_name = name;
                d_version = version;
                d_text = text;
                d_cfg = cfg;
                d_payload = "";
                d_ast = Ast.unit ();
                d_index = index_of_entries [];
              }
            in
            Hashtbl.replace t.docs name d;
            d
      in
      check_doc t doc;
      Ok doc.d_payload)

let apply_edits text edits =
  List.fold_left
    (fun text { e_start; e_len; e_text } ->
      let n = String.length text in
      let s = max 0 (min e_start n) in
      let e = max s (min (s + e_len) n) in
      String.sub text 0 s ^ e_text ^ String.sub text e (n - e))
    text edits

let change_doc t ~name ~version change =
  timed t.h_change t (fun () ->
      with_doc t name (fun doc ->
          if version <= doc.d_version then
            Error
              {
                ws_code = "FG0808";
                ws_msg =
                  Printf.sprintf
                    "stale version %d for document %S (current is %d)"
                    version name doc.d_version;
              }
          else begin
            doc.d_version <- version;
            (doc.d_text <-
               (match change with
               | Full_text text -> text
               | Edits edits -> apply_edits doc.d_text edits));
            check_doc t doc;
            Ok doc.d_payload
          end))

let close_doc t ~name =
  timed t.h_close t (fun () ->
      with_doc t name (fun doc ->
          Hashtbl.remove t.docs name;
          Ok
            (Json.to_string
               (Json.Obj
                  [
                    ("file", Json.Str name);
                    ("closed", Json.Bool true);
                    ("version", Json.Int doc.d_version);
                  ]))))

let diagnostics t ~name =
  timed t.h_diagnostics t (fun () ->
      with_doc t name (fun doc -> Ok doc.d_payload))

(* ---------------------------------------------------------------- *)
(* Hover                                                             *)

let range_json (l : Loc.t) =
  let pos (p : Loc.pos) =
    Json.Obj
      [
        ("line", Json.Int p.Loc.line);
        ("col", Json.Int p.Loc.col);
        ("offset", Json.Int p.Loc.offset);
      ]
  in
  Json.Obj [ ("start", pos l.Loc.start_pos); ("end", pos l.Loc.end_pos) ]

let hover t ~name ~offset =
  timed t.h_hover t (fun () ->
      with_doc t name (fun doc ->
          let qs = index_query doc.d_index ~offset in
          let ty_best =
            best_of
              (List.filter
                 (fun q ->
                   match q.q_entry with C.Check.Itype _ -> true | _ -> false)
                 qs)
          in
          let model_best =
            best_of
              (List.filter
                 (fun q ->
                   match q.q_entry with C.Check.Imodel _ -> true | _ -> false)
                 qs)
          in
          let fields =
            [
              ("file", Json.Str name);
              ("offset", Json.Int offset);
              ("found", Json.Bool (ty_best <> None || model_best <> None));
            ]
            @ (match ty_best with
              | Some { q_entry = C.Check.Itype (l, ty); _ } ->
                  [
                    ("type", Json.Str (C.Pretty.ty_to_string ty));
                    ("range", range_json l);
                  ]
              | _ -> [])
            @
            match model_best with
            | Some { q_entry = C.Check.Imodel (l, c, args); _ } ->
                [
                  ( "model",
                    Json.Obj
                      [
                        ("concept", Json.Str c);
                        ( "args",
                          Json.List
                            (List.map
                               (fun a -> Json.Str (C.Pretty.ty_to_string a))
                               args) );
                        ("range", range_json l);
                      ] );
                ]
            | _ -> []
          in
          Ok (Json.to_string (Json.Obj fields))))

(* ---------------------------------------------------------------- *)
(* Definition                                                        *)

(* Scope-threading AST walk.  We visit every node (spans under
   recovery can be partial, so no pruning by span) carrying three
   namespaces: term binders, concept declarations, named models.  A
   reference node whose span contains the offset yields a candidate;
   the smallest candidate span wins, so an inner [Var] beats the
   enclosing declaration header that also covers the offset. *)
type def_candidate = { c_span : Loc.t; c_name : string; c_target : Loc.t }

let find_definition ast ~offset =
  let candidates = ref [] in
  let consider span name target =
    if Loc.contains span ~offset && not (Loc.is_dummy target) then
      candidates := { c_span = span; c_name = name; c_target = target }
        :: !candidates
  in
  let rec go vars concepts models (e : Ast.exp) =
    match e.Ast.desc with
    | Ast.Var x -> (
        match List.assoc_opt x vars with
        | Some target -> consider e.Ast.loc x target
        | None -> ())
    | Ast.Lit _ | Ast.Prim _ -> ()
    | Ast.App (f, args) ->
        go vars concepts models f;
        List.iter (go vars concepts models) args
    | Ast.Abs (params, body) ->
        let vars' =
          List.map (fun (x, _) -> (x, e.Ast.loc)) params @ vars
        in
        go vars' concepts models body
    | Ast.TyAbs (_, _, body) -> go vars concepts models body
    | Ast.TyApp (f, _) -> go vars concepts models f
    | Ast.Let (x, rhs, body) ->
        go vars concepts models rhs;
        go ((x, e.Ast.loc) :: vars) concepts models body
    | Ast.Tuple es -> List.iter (go vars concepts models) es
    | Ast.Nth (e', _) -> go vars concepts models e'
    | Ast.Fix (x, _, body) ->
        go ((x, e.Ast.loc) :: vars) concepts models body
    | Ast.If (c, a, b) ->
        go vars concepts models c;
        go vars concepts models a;
        go vars concepts models b
    | Ast.Member (c, _, x) ->
        (match List.assoc_opt c concepts with
        | Some target -> consider e.Ast.loc (c ^ "." ^ x) target
        | None -> ())
    | Ast.ConceptDecl (cd, body) ->
        let concepts' = (cd.Ast.c_name, e.Ast.loc) :: concepts in
        List.iter
          (fun (_, d) -> go vars concepts' models d)
          cd.Ast.c_defaults;
        go vars concepts' models body
    | Ast.ModelDecl (md, body) ->
        List.iter (fun (_, m) -> go vars concepts models m) md.Ast.m_members;
        let models' =
          match md.Ast.m_name with
          | Some n -> (n, e.Ast.loc) :: models
          | None -> models
        in
        go vars concepts models' body
    | Ast.Using (n, body) ->
        (match List.assoc_opt n models with
        | Some target -> consider e.Ast.loc n target
        | None -> ());
        go vars concepts models body
    | Ast.TypeAlias (_, _, body) -> go vars concepts models body
  in
  go [] [] [] ast;
  match !candidates with
  | [] -> None
  | c :: cs ->
      let width s = s.Loc.end_pos.Loc.offset - s.Loc.start_pos.Loc.offset in
      Some
        (List.fold_left
           (fun best c ->
             if width c.c_span < width best.c_span then c else best)
           c cs)

let definition t ~name ~offset =
  timed t.h_definition t (fun () ->
      with_doc t name (fun doc ->
          let fields =
            [ ("file", Json.Str name); ("offset", Json.Int offset) ]
            @
            match find_definition doc.d_ast ~offset with
            | None -> [ ("found", Json.Bool false) ]
            | Some c ->
                [
                  ("found", Json.Bool true);
                  ("name", Json.Str c.c_name);
                  ("range", range_json c.c_target);
                ]
          in
          Ok (Json.to_string (Json.Obj fields))))

(* ---------------------------------------------------------------- *)
(* Completion                                                        *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* The identifier prefix ending at [offset] in [text]. *)
let prefix_at text ~offset =
  let stop = min (max offset 0) (String.length text) in
  let start = ref stop in
  while !start > 0 && is_ident_char text.[!start - 1] do
    decr start
  done;
  String.sub text !start (stop - !start)

(* Collect everything nameable whose scope covers [offset]: a
   declaration's bindings are visible after its header span ends, a
   lambda/fix parameter inside the whole abstraction span. *)
let collect_completions ast ~offset =
  let items = ref [] in
  let add label kind extra = items := (label, kind, extra) :: !items in
  let after (l : Loc.t) =
    (not (Loc.is_dummy l)) && offset >= l.Loc.end_pos.Loc.offset
  in
  let inside (l : Loc.t) = Loc.contains l ~offset in
  let rec go (e : Ast.exp) =
    match e.Ast.desc with
    | Ast.Var _ | Ast.Lit _ | Ast.Prim _ | Ast.Member _ -> ()
    | Ast.App (f, args) ->
        go f;
        List.iter go args
    | Ast.Abs (params, body) ->
        if inside e.Ast.loc then
          List.iter (fun (x, _) -> add x "param" []) params;
        go body
    | Ast.TyAbs (_, _, body) -> go body
    | Ast.TyApp (f, _) -> go f
    | Ast.Let (x, rhs, body) ->
        go rhs;
        if after e.Ast.loc then add x "let" [];
        go body
    | Ast.Tuple es -> List.iter go es
    | Ast.Nth (e', _) -> go e'
    | Ast.Fix (x, _, body) ->
        if inside e.Ast.loc then add x "fix" [];
        go body
    | Ast.If (c, a, b) ->
        go c;
        go a;
        go b
    | Ast.ConceptDecl (cd, body) ->
        if after e.Ast.loc then begin
          add cd.Ast.c_name "concept" [];
          List.iter
            (fun (m, _) ->
              add m "member" [ ("concept", Json.Str cd.Ast.c_name) ])
            cd.Ast.c_members
        end;
        List.iter (fun (_, d) -> go d) cd.Ast.c_defaults;
        go body
    | Ast.ModelDecl (md, body) ->
        (match md.Ast.m_name with
        | Some n when after e.Ast.loc -> add n "model" []
        | _ -> ());
        List.iter (fun (_, m) -> go m) md.Ast.m_members;
        go body
    | Ast.Using (_, body) -> go body
    | Ast.TypeAlias (n, _, body) ->
        if after e.Ast.loc then add n "type" [];
        go body
  in
  go ast;
  List.rev !items

let completion t ~name ~offset =
  timed t.h_completion t (fun () ->
      with_doc t name (fun doc ->
          let prefix = prefix_at doc.d_text ~offset in
          let matches label =
            String.length prefix <= String.length label
            && String.sub label 0 (String.length prefix) = prefix
          in
          let seen = Hashtbl.create 16 in
          let items =
            collect_completions doc.d_ast ~offset
            |> List.filter (fun (label, kind, _) ->
                   matches label
                   &&
                   if Hashtbl.mem seen (label, kind) then false
                   else begin
                     Hashtbl.add seen (label, kind) ();
                     true
                   end)
            |> List.sort (fun (a, ka, _) (b, kb, _) ->
                   compare (a, ka) (b, kb))
            |> List.map (fun (label, kind, extra) ->
                   Json.Obj
                     ([ ("label", Json.Str label); ("kind", Json.Str kind) ]
                     @ extra))
          in
          Ok
            (Json.to_string
               (Json.Obj
                  [
                    ("file", Json.Str name);
                    ("offset", Json.Int offset);
                    ("prefix", Json.Str prefix);
                    ("items", Json.List items);
                  ]))))

(* ---------------------------------------------------------------- *)
(* Observability                                                     *)

let stats_json t =
  Mutex.lock t.m;
  let docs = Hashtbl.length t.docs in
  Mutex.unlock t.m;
  (* sort_keys: stats payloads are byte-stable for CI diffing *)
  Json.sort_keys
  @@ Json.Obj
       [
         ("docs", Json.Int docs);
         ("open", Telemetry.Histogram.to_json t.h_open);
         ("change", Telemetry.Histogram.to_json t.h_change);
         ("close", Telemetry.Histogram.to_json t.h_close);
         ("diagnostics", Telemetry.Histogram.to_json t.h_diagnostics);
         ("hover", Telemetry.Histogram.to_json t.h_hover);
         ("definition", Telemetry.Histogram.to_json t.h_definition);
         ("completion", Telemetry.Histogram.to_json t.h_completion);
       ]

let cache_stats t = C.Unit.stats t.cache
