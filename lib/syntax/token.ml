(** Tokens shared by the System F and System FG concrete syntaxes.

    Both languages are lexed by the same scanner ({!Lexer}); the parsers
    differ only in which keywords and forms they accept.  Keywords are a
    closed set checked at lex time, so an identifier can never collide
    with one. *)

type t =
  | INT of int
  | LIDENT of string  (** lowercase identifier: variables, type variables *)
  | UIDENT of string  (** uppercase identifier: concept names *)
  | KW of string  (** keyword, one of {!keywords} *)
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | LT
  | GT
  | COMMA
  | SEMI
  | COLON
  | DOT
  | EQ  (** [=] *)
  | EQEQ  (** [==] *)
  | NEQ  (** [!=] *)
  | ARROW  (** [->] *)
  | DARROW  (** [=>] *)
  | STAR
  | PLUS
  | MINUS
  | SLASH
  | PERCENT
  | LE
  | GE
  | ANDAND
  | BARBAR
  | BANG
  | EOF

(** Keywords of both languages.  The FG-only ones ([concept], [model],
    [refines], [types], [same], [where]) are simply never accepted by the
    System F parser. *)
let keywords =
  [
    "let"; "in"; "fun"; "tfun"; "fix"; "if"; "then"; "else"; "true"; "false";
    "int"; "bool"; "unit"; "list"; "fn"; "forall"; "where"; "concept";
    "model"; "refines"; "require"; "types"; "type"; "same"; "nth"; "not"; "tuple";
    "using";
  ]

(* Every identifier the lexer reads is looked up here, so this is a hash
   lookup rather than a scan of the list, and it returns one shared [KW]
   value per keyword rather than a fresh one per occurrence.  The table
   is filled once and only read afterwards, so domains may share it. *)
let keyword_tokens =
  let t = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace t k (KW k)) keywords;
  t

(** [keyword s] is the token for [s] when [s] is a keyword. *)
let keyword s = Hashtbl.find_opt keyword_tokens s

let pp ppf = function
  | INT n -> Fmt.pf ppf "integer literal %d" n
  | LIDENT s -> Fmt.pf ppf "identifier '%s'" s
  | UIDENT s -> Fmt.pf ppf "identifier '%s'" s
  | KW s -> Fmt.pf ppf "keyword '%s'" s
  | LPAREN -> Fmt.string ppf "'('"
  | RPAREN -> Fmt.string ppf "')'"
  | LBRACKET -> Fmt.string ppf "'['"
  | RBRACKET -> Fmt.string ppf "']'"
  | LBRACE -> Fmt.string ppf "'{'"
  | RBRACE -> Fmt.string ppf "'}'"
  | LT -> Fmt.string ppf "'<'"
  | GT -> Fmt.string ppf "'>'"
  | COMMA -> Fmt.string ppf "','"
  | SEMI -> Fmt.string ppf "';'"
  | COLON -> Fmt.string ppf "':'"
  | DOT -> Fmt.string ppf "'.'"
  | EQ -> Fmt.string ppf "'='"
  | EQEQ -> Fmt.string ppf "'=='"
  | NEQ -> Fmt.string ppf "'!='"
  | ARROW -> Fmt.string ppf "'->'"
  | DARROW -> Fmt.string ppf "'=>'"
  | STAR -> Fmt.string ppf "'*'"
  | PLUS -> Fmt.string ppf "'+'"
  | MINUS -> Fmt.string ppf "'-'"
  | SLASH -> Fmt.string ppf "'/'"
  | PERCENT -> Fmt.string ppf "'%%'"
  | LE -> Fmt.string ppf "'<='"
  | GE -> Fmt.string ppf "'>='"
  | ANDAND -> Fmt.string ppf "'&&'"
  | BARBAR -> Fmt.string ppf "'||'"
  | BANG -> Fmt.string ppf "'!'"
  | EOF -> Fmt.string ppf "end of input"

let to_string t = Fmt.str "%a" pp t

(* The parsers compare the current token against an expected one on
   every [eat], [expect] and [at_kw]: match the constructors here
   rather than calling polymorphic equality. *)
let equal (a : t) (b : t) =
  match (a, b) with
  | INT x, INT y -> Int.equal x y
  | LIDENT x, LIDENT y | UIDENT x, UIDENT y | KW x, KW y -> String.equal x y
  | _ -> a == b
