(** Token-stream cursor shared by the two recursive-descent parsers.

    Wraps the stream produced by {!Lexer.tokenize} with peeking,
    expectation and error-reporting helpers.  The parsers themselves live
    with their languages ([fg_systemf] and [fg_core]). *)

open Fg_util

type t = {
  toks : Lexer.tokens;
  mutable cursor : int;
  mutable span_at : int;  (** index whose span [span] holds, or -1 *)
  mutable span : Loc.t;
}

let of_tokens toks =
  if Lexer.length toks = 0 then Diag.ice "parser: empty token stream";
  { toks; cursor = 0; span_at = -1; span = Loc.dummy }

let of_string ?file src = of_tokens (Lexer.tokenize ?file src)

let peek p = Lexer.token p.toks p.cursor

(** [peek_nth p 0 = peek p]. *)
let peek_nth p k =
  if p.cursor + k < Lexer.length p.toks then Lexer.token p.toks (p.cursor + k)
  else Token.EOF

let peek2 p = peek_nth p 1

(* Each parsing level asks for the span of the token it starts at, so
   one token's span is requested several times in a row.  Keeping the
   last one built lets those nodes share one record, as they did when
   the stream held a record per token, and saves about a sixth of a
   parse's allocation. *)
let span_of p i =
  if p.span_at <> i then begin
    p.span <- Lexer.loc p.toks i;
    p.span_at <- i
  end;
  p.span

let loc p = span_of p p.cursor

(** Span of the most recently consumed token. *)
let prev_loc p = if p.cursor = 0 then loc p else span_of p (p.cursor - 1)

let skip p =
  match peek p with Token.EOF -> () | _ -> p.cursor <- p.cursor + 1

let advance p =
  let tok = peek p and l = loc p in
  skip p;
  (tok, l)

let error p fmt =
  Fmt.kstr
    (fun msg ->
      Diag.parse_error ~loc:(loc p) "%s (found %s)" msg
        (Token.to_string (peek p)))
    fmt

let expect p tok =
  if Token.equal (peek p) tok then snd (advance p)
  else error p "expected %s" (Token.to_string tok)

(** Consume [tok] if present; report whether it was. *)
let eat p tok =
  if Token.equal (peek p) tok then begin
    skip p;
    true
  end
  else false

let expect_kw p kw = ignore (expect p (Token.KW kw))

let at_kw p kw = Token.equal (peek p) (Token.KW kw)

let expect_lident p =
  match peek p with
  | Token.LIDENT s ->
      skip p;
      s
  | _ -> error p "expected a lowercase identifier"

let expect_uident p =
  match peek p with
  | Token.UIDENT s ->
      skip p;
      s
  | _ -> error p "expected a capitalized identifier"

let expect_int p =
  match peek p with
  | Token.INT n ->
      skip p;
      n
  | _ -> error p "expected an integer literal"

(** [sep_list p ~sep ~elem] parses [elem (sep elem)*]. *)
let sep_list p ~sep ~elem =
  let rec more acc = if eat p sep then more (elem p :: acc) else List.rev acc in
  let first = elem p in
  more [ first ]

(** Fail unless the whole input was consumed. *)
let expect_eof p =
  match peek p with
  | Token.EOF -> ()
  | _ -> error p "expected end of input"
