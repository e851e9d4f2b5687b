(** Hand-written scanner shared by the System F and FG parsers.

    A {!scanner} stops after each token: the parsers pull tokens one at
    a time into a four-token window ({!Parser_base}), so a parse holds
    no array sized by its input.  Supports [//] line comments and
    nestable [/* ... */] block comments.

    A token's span is six integers written into the caller's int array;
    the {!Loc.t} record is built only when asked.

    ['<'] and ['>'] are always lexed as single tokens, never combined
    into shifts, so nested concept applications like [C<D<int>>] lex
    correctly; the parsers disambiguate comparison operators from
    type-argument brackets by context. *)

open Fg_util

(* The guided fuzzer hunts inputs that exercise recovery. *)
let p_recover_skip = Coverage.probe "recover.lexer.skip"

type t = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let create ?(file = "<input>") src = { src; file; pos = 0; line = 1; col = 1 }

let current_pos lx : Loc.pos = { line = lx.line; col = lx.col; offset = lx.pos }

let eof lx = lx.pos >= String.length lx.src

let peek_char lx = if eof lx then '\000' else lx.src.[lx.pos]

let peek_char2 lx =
  if lx.pos + 1 >= String.length lx.src then '\000' else lx.src.[lx.pos + 1]

let advance lx =
  if not (eof lx) then begin
    if lx.src.[lx.pos] = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1;
    lx.pos <- lx.pos + 1
  end

let error lx ?code fmt =
  let p = current_pos lx in
  let loc = Loc.make ~file:lx.file ~start_pos:p ~end_pos:p in
  Diag.lex_error ?code ~loc fmt

let is_ident_start = function 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let rec skip_trivia lx =
  match peek_char lx with
  | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_trivia lx
  | '/' when peek_char2 lx = '/' ->
      while (not (eof lx)) && peek_char lx <> '\n' do
        advance lx
      done;
      skip_trivia lx
  | '/' when peek_char2 lx = '*' ->
      advance lx;
      advance lx;
      skip_block_comment lx 1;
      skip_trivia lx
  | _ -> ()

and skip_block_comment lx depth =
  if depth = 0 then ()
  else if eof lx then error lx ~code:"FG0002" "unterminated block comment"
  else if peek_char lx = '*' && peek_char2 lx = '/' then begin
    advance lx;
    advance lx;
    skip_block_comment lx (depth - 1)
  end
  else if peek_char lx = '/' && peek_char2 lx = '*' then begin
    advance lx;
    advance lx;
    skip_block_comment lx (depth + 1)
  end
  else begin
    advance lx;
    skip_block_comment lx depth
  end

let read_ident lx =
  let start = lx.pos in
  while is_ident_char (peek_char lx) do
    advance lx
  done;
  String.sub lx.src start (lx.pos - start)

let read_int lx =
  let start = lx.pos in
  while is_digit (peek_char lx) do
    advance lx
  done;
  let s = String.sub lx.src start (lx.pos - start) in
  match int_of_string_opt s with
  | Some n -> n
  | None -> error lx ~code:"FG0003" "integer literal out of range: %s" s

(* Recognize one token; [skip_trivia] has already run. *)
let next_token lx : Token.t =
  let c = peek_char lx in
  if eof lx then Token.EOF
  else if is_digit c then Token.INT (read_int lx)
  else if is_ident_start c then begin
    let s = read_ident lx in
    match Token.keyword s with
    | Some kw -> kw
    | None ->
        if s.[0] >= 'A' && s.[0] <= 'Z' then Token.UIDENT s
        else Token.LIDENT s
  end
  else begin
    let two tok =
      advance lx;
      advance lx;
      tok
    in
    let one tok =
      advance lx;
      tok
    in
    match (c, peek_char2 lx) with
    | '-', '>' -> two Token.ARROW
    | '=', '>' -> two Token.DARROW
    | '=', '=' -> two Token.EQEQ
    | '!', '=' -> two Token.NEQ
    | '<', '=' -> two Token.LE
    | '>', '=' -> two Token.GE
    | '&', '&' -> two Token.ANDAND
    | '|', '|' -> two Token.BARBAR
    | '(', _ -> one Token.LPAREN
    | ')', _ -> one Token.RPAREN
    | '[', _ -> one Token.LBRACKET
    | ']', _ -> one Token.RBRACKET
    | '{', _ -> one Token.LBRACE
    | '}', _ -> one Token.RBRACE
    | '<', _ -> one Token.LT
    | '>', _ -> one Token.GT
    | ',', _ -> one Token.COMMA
    | ';', _ -> one Token.SEMI
    | ':', _ -> one Token.COLON
    | '.', _ -> one Token.DOT
    | '=', _ -> one Token.EQ
    | '*', _ -> one Token.STAR
    | '+', _ -> one Token.PLUS
    | '-', _ -> one Token.MINUS
    | '/', _ -> one Token.SLASH
    | '%', _ -> one Token.PERCENT
    | '!', _ -> one Token.BANG
    | c, _ -> error lx "unexpected character %C" c
  end

(* ---------------------------------------------------------------- *)
(* The scanner                                                       *)

type scanner = { lx : t; recover : Diag.engine option }

let scanner ?file ?recover src = { lx = create ?file src; recover }

let file sc = sc.lx.file

(** Scan the next token and write its span into [spans] at [b]: start
    line, col, offset, then end line, col, offset.  At end of input
    every call returns [EOF] again. *)
let rec next sc spans b : Token.t =
  let lx = sc.lx in
  match
    skip_trivia lx;
    let line = lx.line and col = lx.col and offset = lx.pos in
    let tok = next_token lx in
    spans.(b) <- line;
    spans.(b + 1) <- col;
    spans.(b + 2) <- offset;
    spans.(b + 3) <- lx.line;
    spans.(b + 4) <- lx.col;
    spans.(b + 5) <- lx.pos;
    tok
  with
  | tok -> tok
  | exception Diag.Error d -> (
      match sc.recover with
      | None -> raise (Diag.Error d)
      | Some engine ->
          Coverage.hit p_recover_skip;
          Diag.report engine d;
          (* Skip the character the scanner tripped on so the scan
             makes progress; at end of input (an unterminated comment)
             the next round produces EOF. *)
          if not (eof lx) then advance lx;
          next sc spans b)

let span ~file s b =
  Loc.make ~file
    ~start_pos:{ Loc.line = s.(b); col = s.(b + 1); offset = s.(b + 2) }
    ~end_pos:{ Loc.line = s.(b + 3); col = s.(b + 4); offset = s.(b + 5) }

let drain sc =
  let scratch = Array.make 6 0 in
  let rec go () = match next sc scratch 0 with Token.EOF -> () | _ -> go () in
  go ()

(* ---------------------------------------------------------------- *)
(* Whole-input token arrays                                          *)

type tokens = { file : string; toks : (Token.t * int array) array }

(** Drain a scanner: the located tokens of the whole input, ending in
    [EOF]. *)
let tokenize ?file src =
  let sc = scanner ?file src in
  let rec loop acc =
    let span = Array.make 6 0 in
    match next sc span 0 with
    | Token.EOF -> List.rev ((Token.EOF, span) :: acc)
    | tok -> loop ((tok, span) :: acc)
  in
  { file = sc.lx.file; toks = Array.of_list (loop []) }

let length t = Array.length t.toks

let token t i = fst t.toks.(i)

let loc t i = span ~file:t.file (snd t.toks.(i)) 0
