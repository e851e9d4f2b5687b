(** Recursive-descent parser for System F concrete syntax.

    Grammar (precedence from loosest to tightest):
    {v
    exp  ::= "let" x "=" exp "in" exp
           | "fun" "(" x ":" ty ("," x ":" ty)* ")" ("=>"|".") exp
           | "tfun" tyvar+ ("=>"|".") exp
           | "fix" "(" x ":" ty ")" ("=>"|".") exp
           | "if" exp "then" exp "else" exp
           | binop-expression over postfix
    postfix ::= atom ( "(" exp,* ")" | "[" ty,+ "]" )*
    atom ::= INT | "true" | "false" | "()" | ident
           | "nth" atom INT | "(" exp ("," exp)* ")"
    v}

    Infix arithmetic/comparison/boolean operators are sugar for the
    primitives ([a + b] parses as [iadd(a, b)]).  Primitive names
    ([iadd], [car], ...) are reserved: an identifier matching the
    {!Prims} table always denotes the primitive. *)

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
      ignore (P.expect p T.DOT);
      TForall (tvs, parse_ty p)
  | T.KW "fn" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      let args =
        if P.eat p T.RPAREN then []
        else
          let args = P.sep_list p ~sep:T.COMMA ~elem:parse_ty in
          ignore (P.expect p T.RPAREN);
          args
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
  | T.LPAREN ->
      P.skip p;
      let t = parse_ty p in
      ignore (P.expect p T.RPAREN);
      t
  | _ -> P.error p "expected a type"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let body_separator p =
  if P.eat p T.DARROW || P.eat p T.DOT then ()
  else P.error p "expected '=>' or '.' before body"

let ident_exp ~loc x = if Prims.is_prim x then prim ~loc x else var ~loc x

(* Variables may be capitalized: the FG translation names dictionary
   variables after their concepts (e.g. [Monoid_18]). *)
let expect_var p =
  match P.peek p with
  | T.LIDENT s | T.UIDENT s ->
      P.skip p;
      s
  | _ -> P.error p "expected an identifier"


let rec parse_exp p : exp =
  let start = P.loc p in
  match P.peek p with
  | T.KW "let" ->
      P.skip p;
      let x = expect_var p in
      ignore (P.expect p T.EQ);
      let rhs = parse_exp p in
      P.expect_kw p "in";
      let body = parse_exp p in
      let_ ~loc:(Fg_util.Loc.merge start (P.prev_loc p)) x rhs body
  | T.KW "fun" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      let params = P.sep_list p ~sep:T.COMMA ~elem:parse_param in
      ignore (P.expect p T.RPAREN);
      body_separator p;
      abs ~loc:(Fg_util.Loc.merge start (P.prev_loc p)) params (parse_exp p)
  | T.KW "tfun" ->
      P.skip p;
      let tvs = parse_tyvars p in
      body_separator p;
      tyabs ~loc:(Fg_util.Loc.merge start (P.prev_loc p)) tvs (parse_exp p)
  | T.KW "fix" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      let x = expect_var p in
      ignore (P.expect p T.COLON);
      let t = parse_ty p in
      ignore (P.expect p T.RPAREN);
      body_separator p;
      fix ~loc:(Fg_util.Loc.merge start (P.prev_loc p)) x t (parse_exp p)
  | T.KW "if" ->
      P.skip p;
      let c = parse_exp p in
      P.expect_kw p "then";
      let t = parse_exp p in
      P.expect_kw p "else";
      let f = parse_exp p in
      if_ ~loc:(Fg_util.Loc.merge start (P.prev_loc p)) c t f
  | _ -> parse_or p

and parse_param p =
  let x = expect_var p in
  ignore (P.expect p T.COLON);
  let t = parse_ty p in
  (x, t)

and binop ~loc prim_name a b = app ~loc (prim ~loc prim_name) [ a; b ]

and parse_or p =
  let rec go lhs =
    if P.eat p T.BARBAR then
      let rhs = parse_and p in
      go (binop ~loc:lhs.loc "bor" lhs rhs)
    else lhs
  in
  go (parse_and p)

and parse_and p =
  let rec go lhs =
    if P.eat p T.ANDAND then
      let rhs = parse_cmp p in
      go (binop ~loc:lhs.loc "band" lhs rhs)
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
      let rhs = parse_add p in
      binop ~loc:lhs.loc name lhs rhs

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
  | T.MINUS ->
      P.skip p;
      app ~loc (prim ~loc "ineg") [ parse_unary p ]
  | T.BANG | T.KW "not" ->
      P.skip p;
      app ~loc (prim ~loc "bnot") [ parse_unary p ]
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
        go (app ~loc:e.loc e args)
    | T.LBRACKET ->
        P.skip p;
        let tys = P.sep_list p ~sep:T.COMMA ~elem:parse_ty in
        ignore (P.expect p T.RBRACKET);
        go (tyapp ~loc:e.loc e tys)
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
      nth ~loc e k
  | T.KW "tuple" ->
      P.skip p;
      ignore (P.expect p T.LPAREN);
      if P.eat p T.RPAREN then tuple ~loc []
      else begin
        let es = P.sep_list p ~sep:T.COMMA ~elem:parse_exp in
        ignore (P.expect p T.RPAREN);
        tuple ~loc es
      end
  | T.LIDENT x | T.UIDENT x ->
      P.skip p;
      ident_exp ~loc x
  | T.LPAREN ->
      P.skip p;
      if P.eat p T.RPAREN then unit ~loc ()
      else begin
        let es = P.sep_list p ~sep:T.COMMA ~elem:parse_exp in
        ignore (P.expect p T.RPAREN);
        match es with [ e ] -> e | es -> tuple ~loc es
      end
  | _ -> P.error p "expected an expression"

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let exp_of_string ?file src = P.parse ?file src parse_exp

let ty_of_string ?file src = P.parse ?file src parse_ty
