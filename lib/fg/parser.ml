(** Recursive-descent parser for System FG concrete syntax.

    The grammar extends the System F syntax with:
    {v
    ty       ::= ... | "forall" tyvar+ ["where" constr,+] "." ty
               | UIDENT "<" ty,+ ">" "." lident           (associated type)
    constr   ::= UIDENT "<" ty,+ ">"                      (model requirement)
               | ty "==" ty                               (same-type)
    exp      ::= ... | "tfun" tyvar+ ["where" constr,+] "=>" exp
               | UIDENT "<" ty,+ ">" "." lident           (member access)
               | "concept" UIDENT "<" tyvar,+ ">" "{" citem* "}" "in" exp
               | "model" UIDENT "<" ty,+ ">" "{" mitem* "}" "in" exp
               | "type" lident "=" ty "in" exp
    citem    ::= "types" lident,+ ";"
               | "refines" (UIDENT "<" ty,+ ">"),+ ";"
               | "same" ty "==" ty ";"
               | lident ":" ty ";"
    mitem    ::= "types" lident "=" ty ";" | lident "=" exp ";"
    v}

    The only delicate point is the type-level where clause: the clause
    terminator is ["."], which is also the associated-type projection
    operator.  After a model requirement [C<τ̄>], a following
    [". s =="] means the requirement was really the head of a same-type
    constraint on [C<τ̄>.s]; any other [". ..."] ends the clause.  Three
    tokens of lookahead decide. *)

open Fg_syntax
open Ast
module P = Parser_base
module T = Token

(* ------------------------------------------------------------------ *)
(* Types                                                               *)

let rec parse_ty p : ty =
  match P.peek p with
  | T.KW "forall" ->
      P.skip p;
      let tvs = parse_tyvars p in
      let constrs =
        if P.at_kw p "where" then begin
          P.skip p;
          parse_constrs p
        end
        else []
      in
      ignore (P.expect p T.DOT);
      TForall (tvs, constrs, parse_ty p)
  | T.KW "fn" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      let args =
        if P.eat p T.RPAREN then []
        else begin
          let args = P.sep_list p ~sep:T.COMMA ~elem:parse_ty in
          ignore (P.expect p T.RPAREN);
          args
        end
      in
      ignore (P.expect p T.ARROW);
      TArrow (args, parse_ty p)
  | _ -> parse_tuple_ty p

and parse_tyvars p =
  let rec go acc =
    match P.peek p with
    | T.LIDENT a ->
        P.skip p;
        go (a :: acc)
    | _ -> List.rev acc
  in
  match P.peek p with
  | T.LIDENT _ -> go []
  | _ -> P.error p "expected type variable"

(* Comma-separated constraints; ends before the clause terminator. *)
and parse_constrs p : constr list =
  P.sep_list p ~sep:T.COMMA ~elem:parse_constr

and parse_constr p : constr =
  match P.peek p with
  | T.UIDENT _ ->
      let c, args = parse_concept_app p in
      (* "C<τ̄> . s ==" begins a same-type constraint; any other "."
         terminates the where clause (the "." is left unconsumed). *)
      if
        T.equal (P.peek p) T.DOT
        && (match P.peek2 p with T.LIDENT _ -> true | _ -> false)
        && T.equal (P.peek_nth p 2) T.EQEQ
      then begin
        P.skip p;
        let s = P.expect_lident p in
        ignore (P.expect p T.EQEQ);
        CSame (TAssoc (c, args, s), parse_ty p)
      end
      else CModel (c, args)
  | _ ->
      let lhs = parse_ty p in
      ignore (P.expect p T.EQEQ);
      CSame (lhs, parse_ty p)

and parse_concept_app p : string * ty list =
  let c = P.expect_uident p in
  ignore (P.expect p T.LT);
  let args = P.sep_list p ~sep:T.COMMA ~elem:parse_ty in
  ignore (P.expect p T.GT);
  (c, args)

and parse_tuple_ty p : ty =
  let first = parse_list_ty p in
  if P.eat p T.STAR then
    let rec go acc =
      let t = parse_list_ty p in
      if P.eat p T.STAR then go (t :: acc) else List.rev (t :: acc)
    in
    TTuple (first :: go [])
  else first

and parse_list_ty p : ty =
  if P.at_kw p "list" then begin
    P.skip p;
    TList (parse_atom_ty p)
  end
  else parse_atom_ty p

and parse_atom_ty p : ty =
  match P.peek p with
  | T.KW "int" ->
      P.skip p;
      TBase TInt
  | T.KW "bool" ->
      P.skip p;
      TBase TBool
  | T.KW "unit" ->
      P.skip p;
      TBase TUnit
  | T.KW "list" ->
      P.skip p;
      TList (parse_atom_ty p)
  | T.KW "tuple" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      if P.eat p T.RPAREN then TTuple []
      else begin
        let ts = P.sep_list p ~sep:T.COMMA ~elem:parse_ty in
        ignore (P.expect p T.RPAREN);
        TTuple ts
      end
  | T.LIDENT a ->
      P.skip p;
      TVar a
  | T.UIDENT _ ->
      let c, args = parse_concept_app p in
      ignore (P.expect p T.DOT);
      let s = P.expect_lident p in
      TAssoc (c, args, s)
  | T.LPAREN ->
      P.skip p;
      let t = parse_ty p in
      ignore (P.expect p T.RPAREN);
      t
  | _ -> P.error p "expected a type"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let ident_exp ~loc x =
  if Fg_systemf.Prims.is_prim x then prim ~loc x else var ~loc x

let rec parse_exp p : exp =
  let start = P.loc p in
  let merged () = Fg_util.Loc.merge start (P.prev_loc p) in
  match P.peek p with
  | T.KW "let" ->
      (* Declaration nodes span their own syntax through the trailing
         "in" — not the body continuation — exactly as the recovering
         spine parser's [parse_decl_step] builds them, so both parse
         paths give every declaration the same span (and the same
         compilation-unit content hash). *)
      P.skip p;
      let x = P.expect_lident p in
      ignore (P.expect p T.EQ);
      let rhs = parse_exp p in
      P.expect_kw p "in";
      let loc = merged () in
      let_ ~loc x rhs (parse_exp p)
  | T.KW "fun" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      let params = P.sep_list p ~sep:T.COMMA ~elem:parse_param in
      ignore (P.expect p T.RPAREN);
      ignore (P.expect p T.DARROW);
      abs ~loc:(merged ()) params (parse_exp p)
  | T.KW "tfun" ->
      P.skip p;
      let tvs = parse_tyvars p in
      let constrs =
        if P.at_kw p "where" then begin
          P.skip p;
          parse_constrs p
        end
        else []
      in
      ignore (P.expect p T.DARROW);
      tyabs ~loc:(merged ()) tvs constrs (parse_exp p)
  | T.KW "fix" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      let x = P.expect_lident p in
      ignore (P.expect p T.COLON);
      let t = parse_ty p in
      ignore (P.expect p T.RPAREN);
      ignore (P.expect p T.DARROW);
      fix ~loc:(merged ()) x t (parse_exp p)
  | T.KW "if" ->
      P.skip p;
      let c = parse_exp p in
      P.expect_kw p "then";
      let t = parse_exp p in
      P.expect_kw p "else";
      let f = parse_exp p in
      if_ ~loc:(merged ()) c t f
  | T.KW "concept" ->
      let d = parse_concept_decl p in
      P.expect_kw p "in";
      let loc = merged () in
      concept_decl ~loc d (parse_exp p)
  | T.KW "model" ->
      let d = parse_model_decl p in
      P.expect_kw p "in";
      let loc = merged () in
      model_decl ~loc d (parse_exp p)
  | T.KW "type" ->
      P.skip p;
      let t = P.expect_lident p in
      ignore (P.expect p T.EQ);
      let ty = parse_ty p in
      P.expect_kw p "in";
      let loc = merged () in
      type_alias ~loc t ty (parse_exp p)
  | T.KW "using" ->
      P.skip p;
      let m = P.expect_lident p in
      P.expect_kw p "in";
      let loc = merged () in
      using ~loc m (parse_exp p)
  | _ -> parse_or p

and parse_param p =
  let x = P.expect_lident p in
  ignore (P.expect p T.COLON);
  let t = parse_ty p in
  (x, t)

(* The desugared application spans both operands (the operator prim
   keeps the caller's anchor), so operand spans nest inside it and a
   position query over the whole [a OP b] lands on the application. *)
and binop ~loc prim_name a b =
  app ~loc:(Fg_util.Loc.merge a.loc b.loc) (prim ~loc prim_name) [ a; b ]

and parse_or p =
  let rec go lhs =
    if P.eat p T.BARBAR then go (binop ~loc:lhs.loc "bor" lhs (parse_and p))
    else lhs
  in
  go (parse_and p)

and parse_and p =
  let rec go lhs =
    if P.eat p T.ANDAND then go (binop ~loc:lhs.loc "band" lhs (parse_cmp p))
    else lhs
  in
  go (parse_cmp p)

and parse_cmp p =
  let lhs = parse_add p in
  let op =
    match P.peek p with
    | T.EQEQ -> Some "ieq"
    | T.NEQ -> Some "ineq"
    | T.LT -> Some "ilt"
    | T.LE -> Some "ile"
    | T.GT -> Some "igt"
    | T.GE -> Some "ige"
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some name ->
      P.skip p;
      binop ~loc:lhs.loc name lhs (parse_add p)

and parse_add p =
  let rec go lhs =
    match P.peek p with
    | T.PLUS ->
        P.skip p;
        go (binop ~loc:lhs.loc "iadd" lhs (parse_mul p))
    | T.MINUS ->
        P.skip p;
        go (binop ~loc:lhs.loc "isub" lhs (parse_mul p))
    | _ -> lhs
  in
  go (parse_mul p)

and parse_mul p =
  let rec go lhs =
    match P.peek p with
    | T.STAR ->
        P.skip p;
        go (binop ~loc:lhs.loc "imult" lhs (parse_unary p))
    | T.SLASH ->
        P.skip p;
        go (binop ~loc:lhs.loc "idiv" lhs (parse_unary p))
    | T.PERCENT ->
        P.skip p;
        go (binop ~loc:lhs.loc "imod" lhs (parse_unary p))
    | _ -> lhs
  in
  go (parse_unary p)

and parse_unary p =
  let loc = P.loc p in
  match P.peek p with
  | T.MINUS -> (
      P.skip p;
      (* Fold negation of an integer literal into a negative literal, so
         printed negative constants parse back to themselves. *)
      match parse_unary p with
      | { desc = Lit (LInt n); loc = nloc } ->
          lit ~loc:(Fg_util.Loc.merge loc nloc) (LInt (-n))
      | e -> app ~loc:(Fg_util.Loc.merge loc e.loc) (prim ~loc "ineg") [ e ])
  | T.BANG | T.KW "not" ->
      P.skip p;
      let e = parse_unary p in
      app ~loc:(Fg_util.Loc.merge loc e.loc) (prim ~loc "bnot") [ e ]
  | _ -> parse_postfix p

and parse_postfix p =
  let rec go e =
    match P.peek p with
    | T.LPAREN ->
        P.skip p;
        let args =
          if P.eat p T.RPAREN then []
          else begin
            let args = P.sep_list p ~sep:T.COMMA ~elem:parse_exp in
            ignore (P.expect p T.RPAREN);
            args
          end
        in
        go (app ~loc:(Fg_util.Loc.merge e.loc (P.prev_loc p)) e args)
    | T.LBRACKET ->
        P.skip p;
        let tys = P.sep_list p ~sep:T.COMMA ~elem:parse_ty in
        ignore (P.expect p T.RBRACKET);
        go (tyapp ~loc:(Fg_util.Loc.merge e.loc (P.prev_loc p)) e tys)
    | _ -> e
  in
  go (parse_atom p)

and parse_atom p : exp =
  let loc = P.loc p in
  match P.peek p with
  | T.INT n ->
      P.skip p;
      int ~loc n
  | T.KW "true" ->
      P.skip p;
      bool ~loc true
  | T.KW "false" ->
      P.skip p;
      bool ~loc false
  | T.KW "nth" ->
      P.skip p;
      let e = parse_atom p in
      let k = P.expect_int p in
      nth ~loc:(Fg_util.Loc.merge loc (P.prev_loc p)) e k
  | T.KW "tuple" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      if P.eat p T.RPAREN then
        tuple ~loc:(Fg_util.Loc.merge loc (P.prev_loc p)) []
      else begin
        let es = P.sep_list p ~sep:T.COMMA ~elem:parse_exp in
        ignore (P.expect p T.RPAREN);
        tuple ~loc:(Fg_util.Loc.merge loc (P.prev_loc p)) es
      end
  | T.LIDENT x ->
      P.skip p;
      ident_exp ~loc x
  | T.UIDENT _ ->
      let c, args = parse_concept_app p in
      ignore (P.expect p T.DOT);
      let x = P.expect_lident p in
      member ~loc:(Fg_util.Loc.merge loc (P.prev_loc p)) c args x
  | T.LPAREN ->
      P.skip p;
      if P.eat p T.RPAREN then unit ~loc:(Fg_util.Loc.merge loc (P.prev_loc p)) ()
      else begin
        let es = P.sep_list p ~sep:T.COMMA ~elem:parse_exp in
        ignore (P.expect p T.RPAREN);
        match es with
        | [ e ] -> e
        | es -> tuple ~loc:(Fg_util.Loc.merge loc (P.prev_loc p)) es
      end
  | _ -> P.error p "expected an expression"

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)

and parse_concept_decl p : concept_decl =
  let start = P.loc p in
  P.expect_kw p "concept";
  let name = P.expect_uident p in
  ignore (P.expect p T.LT);
  let params = P.sep_list p ~sep:T.COMMA ~elem:P.expect_lident in
  ignore (P.expect p T.GT);
  ignore (P.expect p T.LBRACE);
  let assoc = ref [] in
  let refines = ref [] in
  let requires = ref [] in
  let members = ref [] in
  let defaults = ref [] in
  let same = ref [] in
  let rec items () =
    match P.peek p with
    | T.RBRACE -> P.skip p
    | T.KW "types" ->
        P.skip p;
        let names = P.sep_list p ~sep:T.COMMA ~elem:P.expect_lident in
        ignore (P.expect p T.SEMI);
        assoc := !assoc @ names;
        items ()
    | T.KW "refines" ->
        P.skip p;
        let rs = P.sep_list p ~sep:T.COMMA ~elem:parse_concept_app in
        ignore (P.expect p T.SEMI);
        refines := !refines @ rs;
        items ()
    | T.KW "require" ->
        P.skip p;
        let rs = P.sep_list p ~sep:T.COMMA ~elem:parse_concept_app in
        ignore (P.expect p T.SEMI);
        requires := !requires @ rs;
        items ()
    | T.KW "same" ->
        P.skip p;
        let a = parse_ty p in
        ignore (P.expect p T.EQEQ);
        let b = parse_ty p in
        ignore (P.expect p T.SEMI);
        same := !same @ [ (a, b) ];
        items ()
    | T.LIDENT _ ->
        let x = P.expect_lident p in
        ignore (P.expect p T.COLON);
        let ty = parse_ty p in
        (* optional default body: x : τ = e; *)
        if P.eat p T.EQ then begin
          let e = parse_exp p in
          defaults := !defaults @ [ (x, e) ]
        end;
        ignore (P.expect p T.SEMI);
        members := !members @ [ (x, ty) ];
        items ()
    | _ -> P.error p "expected a concept item or '}'"
  in
  items ();
  {
    c_name = name;
    c_params = params;
    c_assoc = !assoc;
    c_refines = !refines;
    c_requires = !requires;
    c_members = !members;
    c_defaults = !defaults;
    c_same = !same;
    c_loc = Fg_util.Loc.merge start (P.prev_loc p);
  }

and parse_model_decl p : model_decl =
  let start = P.loc p in
  P.expect_kw p "model";
  (* named model: model m = C<args> {...} *)
  let name =
    match (P.peek p, P.peek2 p) with
    | T.LIDENT m, T.EQ ->
        P.skip p;
        P.skip p;
        Some m
    | _ -> None
  in
  (* parameterized model: model <t, u> [where constrs =>] C<args> {...} *)
  let params, constrs =
    if P.eat p T.LT then begin
      let params = P.sep_list p ~sep:T.COMMA ~elem:P.expect_lident in
      ignore (P.expect p T.GT);
      let constrs =
        if P.at_kw p "where" then begin
          P.skip p;
          let cs = parse_constrs p in
          ignore (P.expect p T.DARROW);
          cs
        end
        else []
      in
      (params, constrs)
    end
    else ([], [])
  in
  let concept, args = parse_concept_app_after_kw p in
  ignore (P.expect p T.LBRACE);
  let assoc = ref [] in
  let members = ref [] in
  let rec items () =
    match P.peek p with
    | T.RBRACE -> P.skip p
    | T.KW "types" ->
        P.skip p;
        let s = P.expect_lident p in
        ignore (P.expect p T.EQ);
        let ty = parse_ty p in
        ignore (P.expect p T.SEMI);
        assoc := !assoc @ [ (s, ty) ];
        items ()
    | T.LIDENT _ ->
        let x = P.expect_lident p in
        ignore (P.expect p T.EQ);
        let e = parse_exp p in
        ignore (P.expect p T.SEMI);
        members := !members @ [ (x, e) ];
        items ()
    | _ -> P.error p "expected a model item or '}'"
  in
  items ();
  {
    m_name = name;
    m_params = params;
    m_constrs = constrs;
    m_concept = concept;
    m_args = args;
    m_assoc = !assoc;
    m_members = !members;
    m_loc = Fg_util.Loc.merge start (P.prev_loc p);
  }

and parse_concept_app_after_kw p = parse_concept_app p

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let exp_of_string ?file src = P.parse ?file src parse_exp

let ty_of_string ?file src = P.parse ?file src parse_ty

let constr_of_string ?file src = P.parse ?file src parse_constr

(* ------------------------------------------------------------------ *)
(* Recovering entry point                                              *)

let at_decl_kw p = Fg_syntax.Declscan.is_decl_kw (P.peek p)

(* The name a declaration is about to bind, read off the lookahead
   before parsing commits.  Needed so that a declaration that fails to
   parse can still poison its binding. *)
let decl_binder_hint p =
  match (P.peek p, P.peek2 p) with
  | T.KW ("let" | "type" | "using"), T.LIDENT x -> Some x
  | T.KW "concept", T.UIDENT c -> Some c
  | T.KW "model", T.LIDENT m when T.equal (P.peek_nth p 2) T.EQ -> Some m
  | _ -> None

(* Parse one top-level declaration including its trailing "in",
   returning the wrap that grafts a body under it.  Precondition: the
   cursor is at a declaration keyword (so at least one token is always
   consumed, even on failure). *)
let parse_decl_step p : exp -> exp =
  let start = P.loc p in
  let merged () = Fg_util.Loc.merge start (P.prev_loc p) in
  match P.peek p with
  | T.KW "let" ->
      P.skip p;
      let x = P.expect_lident p in
      ignore (P.expect p T.EQ);
      let rhs = parse_exp p in
      P.expect_kw p "in";
      let loc = merged () in
      fun body -> let_ ~loc x rhs body
  | T.KW "concept" ->
      let d = parse_concept_decl p in
      P.expect_kw p "in";
      let loc = merged () in
      fun body -> concept_decl ~loc d body
  | T.KW "model" ->
      let d = parse_model_decl p in
      P.expect_kw p "in";
      let loc = merged () in
      fun body -> model_decl ~loc d body
  | T.KW "type" ->
      P.skip p;
      let t = P.expect_lident p in
      ignore (P.expect p T.EQ);
      let ty = parse_ty p in
      P.expect_kw p "in";
      let loc = merged () in
      fun body -> type_alias ~loc t ty body
  | T.KW "using" ->
      P.skip p;
      let m = P.expect_lident p in
      P.expect_kw p "in";
      let loc = merged () in
      fun body -> using ~loc m body
  | _ -> Fg_util.Diag.ice "parse_decl_step: not at a declaration"

(* After a syntax error, skip tokens until the next declaration keyword
   (or a declaration-terminating "in", which is consumed so the spine
   resumes after it) at bracket depth <= 0, or EOF.  Depth goes
   negative when the error was inside brackets the cursor had already
   entered; any closer then re-anchors at the enclosing level. *)
let p_recover_sync = Fg_util.Coverage.probe "recover.parser.sync"

let synchronize p =
  Fg_util.Coverage.hit p_recover_sync;
  let depth = ref 0 in
  let stop = ref false in
  while not !stop do
    match P.peek p with
    | T.EOF -> stop := true
    | t when Fg_syntax.Declscan.is_decl_kw t && !depth <= 0 -> stop := true
    | T.KW "in" when !depth <= 0 ->
        (* The failed declaration's own terminator: what follows is the
           rest of the spine (or the residual body), so resume there. *)
        P.skip p;
        stop := true
    | T.LPAREN | T.LBRACE | T.LBRACKET ->
        incr depth;
        P.skip p
    | T.RPAREN | T.RBRACE | T.RBRACKET ->
        decr depth;
        P.skip p
    | _ -> P.skip p
  done

(* The scanner reports lexer errors to [engine] as the parse reaches
   them, while parser errors wait in [parse_errors] until the loop has
   read the input to its end: every lexer diagnostic precedes every
   parser diagnostic, however the two interleave in the text. *)
let exp_of_string_recovering ~engine ?file src =
  let p = P.of_string ?file ~recover:engine src in
  let parse_errors = ref [] in
  let wraps = ref [] in
  let poisoned = ref [] in
  let body = ref None in
  let finished = ref false in
  (* Top-level programs are a spine of declarations ending in a residual
     expression; parse the spine iteratively so a failed declaration can
     be dropped without losing the ones after it. *)
  while not !finished do
    if T.equal (P.peek p) T.EOF then finished := true
    else if at_decl_kw p then begin
      let hint = decl_binder_hint p in
      match parse_decl_step p with
      | wrap -> wraps := wrap :: !wraps
      | exception Fg_util.Diag.Error d ->
          parse_errors := d :: !parse_errors;
          Option.iter (fun x -> poisoned := x :: !poisoned) hint;
          synchronize p
    end
    else begin
      match
        let e = parse_exp p in
        P.expect_eof p;
        e
      with
      | e ->
          body := Some e;
          finished := true
      | exception Fg_util.Diag.Error d ->
          parse_errors := d :: !parse_errors;
          synchronize p
    end
  done;
  List.iter (Fg_util.Diag.report engine) (List.rev !parse_errors);
  let body =
    match !body with
    | Some e -> e
    | None ->
        (* Errors swallowed the residual expression; a unit placeholder
           lets the checker still walk the declarations that did parse.
           At least one error was reported, so no caller mistakes the
           placeholder for a result. *)
        unit ~loc:Fg_util.Loc.dummy ()
  in
  let e = List.fold_left (fun acc w -> w acc) body !wraps in
  (e, List.rev !poisoned)
