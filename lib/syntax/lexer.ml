(** Hand-written scanner shared by the System F and FG parsers.

    Produces the full token stream eagerly (programs are small; the
    parsers want arbitrary lookahead for cheap).  Supports [//] line
    comments and nestable [/* ... */] block comments.

    The stream keeps each token's span as six integers in one int array
    and builds the {!Loc.t} record only when asked.  A (token, span)
    pair per token would make a large program's stream thousands of
    small blocks that one array holds across minor collections, and
    copying them to the major heap costs more than scanning the text.

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
(* The token stream                                                  *)

type tokens = {
  file : string;
  mutable toks : Token.t array;
  mutable spans : int array;
      (** per token: start line, col, offset, end line, col, offset *)
  mutable count : int;
}

let push t tok ~line ~col ~offset lx =
  if t.count = Array.length t.toks then begin
    let toks = Array.make (2 * t.count) Token.EOF in
    let spans = Array.make (12 * t.count) 0 in
    Array.blit t.toks 0 toks 0 t.count;
    Array.blit t.spans 0 spans 0 (6 * t.count);
    t.toks <- toks;
    t.spans <- spans
  end;
  let b = 6 * t.count in
  t.toks.(t.count) <- tok;
  t.spans.(b) <- line;
  t.spans.(b + 1) <- col;
  t.spans.(b + 2) <- offset;
  t.spans.(b + 3) <- lx.line;
  t.spans.(b + 4) <- lx.col;
  t.spans.(b + 5) <- lx.pos;
  t.count <- t.count + 1

(* Scan the whole input; [on_error] decides what a lexer error does. *)
let scan ?(file = "<input>") src ~on_error =
  let lx = create ~file src in
  let cap = max 16 (String.length src / 2) in
  let t =
    {
      file;
      toks = Array.make cap Token.EOF;
      spans = Array.make (6 * cap) 0;
      count = 0;
    }
  in
  let continue = ref true in
  while !continue do
    match
      skip_trivia lx;
      let line = lx.line and col = lx.col and offset = lx.pos in
      let tok = next_token lx in
      push t tok ~line ~col ~offset lx;
      tok
    with
    | Token.EOF -> continue := false
    | _ -> ()
    | exception Diag.Error d -> on_error lx d
  done;
  t

(** Lex the whole input to located tokens, ending in [EOF]. *)
let tokenize ?file src =
  scan ?file src ~on_error:(fun _ d -> raise (Diag.Error d))

(** Like {!tokenize}, but lexer errors are reported to [engine] and the
    scan keeps going: the offending character is skipped and the next
    token is read after it.  The result always ends in [EOF], so the
    parser can run over whatever tokens survived. *)
let tokenize_recovering ~engine ?file src =
  scan ?file src ~on_error:(fun lx d ->
      Coverage.hit p_recover_skip;
      Diag.report engine d;
      (* Skip the character the scanner tripped on so the loop makes
         progress; at end of input (unterminated comment) the next
         round produces EOF. *)
      if not (eof lx) then advance lx)

let length t = t.count

let token t i =
  if i < 0 || i >= t.count then invalid_arg "Lexer.token";
  t.toks.(i)

let loc t i =
  if i < 0 || i >= t.count then invalid_arg "Lexer.loc";
  let s = t.spans and b = 6 * i in
  Loc.make ~file:t.file
    ~start_pos:{ Loc.line = s.(b); col = s.(b + 1); offset = s.(b + 2) }
    ~end_pos:{ Loc.line = s.(b + 3); col = s.(b + 4); offset = s.(b + 5) }
