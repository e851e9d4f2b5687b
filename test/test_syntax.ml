(* Tests for the shared lexing/parsing infrastructure: token streams,
   comments, locations, lookahead, and lexer failure modes. *)

open Fg_syntax
module T = Token

let toks src =
  let ts = Lexer.tokenize src in
  List.init (Lexer.length ts) (Lexer.token ts)
  |> List.filter (fun t -> t <> T.EOF)

let test_basic_tokens () =
  Alcotest.(check bool) "idents and ints" true
    (toks "foo Bar 42"
    = [ T.LIDENT "foo"; T.UIDENT "Bar"; T.INT 42 ]);
  Alcotest.(check bool) "keywords recognized" true
    (toks "let in concept model" =
       [ T.KW "let"; T.KW "in"; T.KW "concept"; T.KW "model" ]);
  Alcotest.(check bool) "underscore ident" true
    (toks "_x x_1 x'" = [ T.LIDENT "_x"; T.LIDENT "x_1"; T.LIDENT "x'" ])

let test_operators () =
  Alcotest.(check bool) "two-char ops" true
    (toks "-> => == != <= >= && ||"
    = [ T.ARROW; T.DARROW; T.EQEQ; T.NEQ; T.LE; T.GE; T.ANDAND; T.BARBAR ]);
  Alcotest.(check bool) "one-char ops" true
    (toks "< > = + - * / % ! . , ; :"
    = [ T.LT; T.GT; T.EQ; T.PLUS; T.MINUS; T.STAR; T.SLASH; T.PERCENT;
        T.BANG; T.DOT; T.COMMA; T.SEMI; T.COLON ])

let test_angle_brackets_never_combine () =
  (* C<D<int>> must lex as ... GT GT, never a shift *)
  Alcotest.(check bool) "no >> token" true
    (toks "C<D<int>>"
    = [ T.UIDENT "C"; T.LT; T.UIDENT "D"; T.LT; T.KW "int"; T.GT; T.GT ])

let test_comments () =
  Alcotest.(check bool) "line comment" true (toks "1 // two\n 3" = [ T.INT 1; T.INT 3 ]);
  Alcotest.(check bool) "block comment" true (toks "1 /* x */ 2" = [ T.INT 1; T.INT 2 ]);
  Alcotest.(check bool) "nested block" true
    (toks "1 /* a /* b */ c */ 2" = [ T.INT 1; T.INT 2 ]);
  (* unterminated block comment is a lex error *)
  match Fg_util.Diag.protect (fun () -> Lexer.tokenize "1 /* oops") with
  | Ok _ -> Alcotest.fail "expected lex error"
  | Error d -> Alcotest.(check bool) "phase" true (d.phase = Fg_util.Diag.Lexer)

let test_locations () =
  let ts = Lexer.tokenize ~file:"f.fg" "ab\n  cd" in
  let loc1 = Lexer.loc ts 0 in
  let loc2 = Lexer.loc ts 1 in
  Alcotest.(check int) "first line" 1 loc1.start_pos.line;
  Alcotest.(check int) "first col" 1 loc1.start_pos.col;
  Alcotest.(check int) "second line" 2 loc2.start_pos.line;
  Alcotest.(check int) "second col" 3 loc2.start_pos.col;
  Alcotest.(check string) "file recorded" "f.fg" loc1.file

let test_bad_character () =
  match Fg_util.Diag.protect (fun () -> Lexer.tokenize "a § b") with
  | Ok _ -> Alcotest.fail "expected lex error"
  | Error d ->
      Alcotest.(check bool) "mentions the char" true
        (Astring_contains.contains ~needle:"unexpected character" d.message)

let test_int_overflow () =
  match
    Fg_util.Diag.protect (fun () ->
        Lexer.tokenize "99999999999999999999999999999")
  with
  | Ok _ -> Alcotest.fail "expected lex error"
  | Error d ->
      Alcotest.(check bool) "out of range" true
        (Astring_contains.contains ~needle:"out of range" d.message)

let test_parser_base_lookahead () =
  let p = Parser_base.of_string "a b c d" in
  Alcotest.(check bool) "peek" true (Parser_base.peek p = T.LIDENT "a");
  Alcotest.(check bool) "peek2" true (Parser_base.peek2 p = T.LIDENT "b");
  Alcotest.(check bool) "peek_nth 2" true
    (Parser_base.peek_nth p 2 = T.LIDENT "c");
  Alcotest.(check bool) "peek_nth beyond end" true
    (Parser_base.peek_nth p 99 = T.EOF);
  Parser_base.skip p;
  Alcotest.(check bool) "after skip" true (Parser_base.peek p = T.LIDENT "b")

let test_parser_base_sep_list () =
  let p = Parser_base.of_string "1, 2, 3 rest" in
  let xs =
    Parser_base.sep_list p ~sep:T.COMMA ~elem:(fun p ->
        Parser_base.expect_int p)
  in
  Alcotest.(check (list int)) "elements" [ 1; 2; 3 ] xs;
  Alcotest.(check bool) "stops at non-sep" true
    (Parser_base.peek p = T.LIDENT "rest")

let test_parser_base_expect () =
  let p = Parser_base.of_string "x" in
  (match Fg_util.Diag.protect (fun () -> Parser_base.expect p T.COMMA) with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error d ->
      Alcotest.(check bool) "found shown" true
        (Astring_contains.contains ~needle:"identifier 'x'" d.message));
  let p2 = Parser_base.of_string "x" in
  Alcotest.(check bool) "eat false" false (Parser_base.eat p2 T.COMMA);
  Alcotest.(check bool) "cursor unmoved" true
    (Parser_base.peek p2 = T.LIDENT "x")

let test_eof_idempotent () =
  let p = Parser_base.of_string "" in
  Alcotest.(check bool) "eof" true (Parser_base.peek p = T.EOF);
  Parser_base.skip p;
  Parser_base.skip p;
  Alcotest.(check bool) "still eof" true (Parser_base.peek p = T.EOF)

(* Each cursor owns its scanner and its lookahead: two streams live at
   once on one domain, advanced in turn, never see each other's tokens
   or spans. *)
let test_streams_independent () =
  let a = Parser_base.of_string ~file:"a" "alpha beta\n  gamma delta"
  and b = Parser_base.of_string ~file:"b" "x y" in
  Alcotest.(check bool) "a starts" true (Parser_base.peek a = T.LIDENT "alpha");
  Alcotest.(check bool) "b starts" true (Parser_base.peek b = T.LIDENT "x");
  Parser_base.skip a;
  Alcotest.(check bool) "b unmoved" true (Parser_base.peek b = T.LIDENT "x");
  Alcotest.(check bool) "a two ahead" true
    (Parser_base.peek_nth a 2 = T.LIDENT "delta");
  Parser_base.skip b;
  Parser_base.skip b;
  Alcotest.(check bool) "b at end" true (Parser_base.peek b = T.EOF);
  Alcotest.(check bool) "a unmoved by b" true
    (Parser_base.peek a = T.LIDENT "beta");
  Parser_base.skip a;
  let l = Parser_base.loc a and pl = Parser_base.prev_loc a in
  Alcotest.(check (list int)) "a's span, line and col" [ 2; 3 ]
    [ l.start_pos.line; l.start_pos.col ];
  Alcotest.(check string) "a's file" "a" l.file;
  Alcotest.(check (list int)) "a's previous span" [ 1; 7; 11 ]
    [ pl.start_pos.line; pl.start_pos.col; pl.end_pos.col ];
  Alcotest.(check string) "b's file" "b" (Parser_base.prev_loc b).file;
  Alcotest.(check bool) "b still at end" true (Parser_base.peek b = T.EOF)

let suite =
  [
    Alcotest.test_case "basic tokens" `Quick test_basic_tokens;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "angle brackets never combine" `Quick
      test_angle_brackets_never_combine;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "token locations" `Quick test_locations;
    Alcotest.test_case "bad character" `Quick test_bad_character;
    Alcotest.test_case "int overflow" `Quick test_int_overflow;
    Alcotest.test_case "lookahead" `Quick test_parser_base_lookahead;
    Alcotest.test_case "sep_list" `Quick test_parser_base_sep_list;
    Alcotest.test_case "expect/eat" `Quick test_parser_base_expect;
    Alcotest.test_case "eof idempotent" `Quick test_eof_idempotent;
    Alcotest.test_case "two streams stay independent" `Quick
      test_streams_independent;
  ]
