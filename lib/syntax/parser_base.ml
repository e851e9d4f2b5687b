(** Token-stream cursor shared by the two recursive-descent parsers.

    Pulls tokens from a {!Lexer.scanner} into a small window and wraps
    it with peeking, expectation and error-reporting helpers.  The
    parsers themselves live with their languages ([fg_systemf] and
    [fg_core]). *)

open Fg_util

(* The parsers look at most two tokens ahead ([peek_nth p 2]) and one
   behind ([prev_loc]), so four tokens are all a parse keeps: token [i]
   lives in slot [i land mask] of a ring that is doubled only when a
   caller peeks further ahead. *)
type t = {
  scan : Lexer.scanner;
  file : string;
  mutable mask : int;  (** ring capacity - 1; the capacity is a power of 2 *)
  mutable toks : Token.t array;
  mutable spans : int array;  (** six ints per slot, as {!Lexer.next} writes *)
  mutable cursor : int;  (** index of the current token *)
  mutable filled : int;  (** tokens scanned so far *)
  mutable ended : bool;  (** the last token scanned is [EOF] *)
  mutable span_at : int;  (** index whose span [span] holds, or -1 *)
  mutable span : Loc.t;
}

let window = 4

let of_string ?file ?recover src =
  let scan = Lexer.scanner ?file ?recover src in
  {
    scan;
    file = Lexer.file scan;
    mask = window - 1;
    toks = Array.make window Token.EOF;
    spans = Array.make (6 * window) 0;
    cursor = 0;
    filled = 0;
    ended = false;
    span_at = -1;
    span = Loc.dummy;
  }

(* Double the ring, keeping the tokens from [cursor - 1] on. *)
let grow p =
  let cap = 2 * (p.mask + 1) in
  let toks = Array.make cap Token.EOF and spans = Array.make (6 * cap) 0 in
  for i = max 0 (p.cursor - 1) to p.filled - 1 do
    let o = i land p.mask and n = i land (cap - 1) in
    toks.(n) <- p.toks.(o);
    Array.blit p.spans (6 * o) spans (6 * n) 6
  done;
  p.toks <- toks;
  p.spans <- spans;
  p.mask <- cap - 1

(* Scan until token [i] is in the ring or the input has ended. *)
let rec fill p i =
  if p.filled <= i && not p.ended then begin
    if p.filled - max 0 (p.cursor - 1) > p.mask then grow p;
    let slot = p.filled land p.mask in
    let tok = Lexer.next p.scan p.spans (6 * slot) in
    p.toks.(slot) <- tok;
    p.filled <- p.filled + 1;
    (match tok with Token.EOF -> p.ended <- true | _ -> ());
    fill p i
  end

(** [peek_nth p 0 = peek p]. *)
let peek_nth p k =
  let i = p.cursor + k in
  if i >= p.filled then fill p i;
  if i < p.filled then p.toks.(i land p.mask) else Token.EOF

let peek p = peek_nth p 0

let peek2 p = peek_nth p 1

(* Each parsing level asks for the span of the token it starts at, so
   one token's span is requested several times in a row.  Keeping the
   last one built lets those nodes share one record, as they did when
   the stream held a record per token, and saves about a sixth of a
   parse's allocation. *)
let span_of p i =
  if p.span_at <> i then begin
    p.span <- Lexer.span ~file:p.file p.spans (6 * (i land p.mask));
    p.span_at <- i
  end;
  p.span

let loc p =
  ignore (peek p);
  span_of p p.cursor

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

let at_kw p kw = match peek p with Token.KW k -> String.equal k kw | _ -> false

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

(* A text's first lexer error wins over anything the parse raises
   before reaching it, so which error a text reports does not depend on
   how far the parse read: the rest of the text is scanned before the
   parse's exception is re-raised. *)
let parse ?file src f =
  let p = of_string ?file src in
  match
    let v = f p in
    expect_eof p;
    v
  with
  | v -> v
  | exception (Diag.Error { Diag.phase = Diag.Lexer; _ } as e) -> raise e
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Lexer.drain p.scan;
      Printexc.raise_with_backtrace e bt
