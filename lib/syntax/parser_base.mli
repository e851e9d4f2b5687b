(** Token-stream cursor shared by the two recursive-descent parsers:
    peeking, expectation and error-reporting helpers. *)

type t

(** A cursor at the first token of [src].  Tokens are scanned as the
    parse asks for them; [recover] is as in {!Lexer.scanner}. *)
val of_string : ?file:string -> ?recover:Fg_util.Diag.engine -> string -> t

(** [parse ?file src f] runs [f] on a cursor over [src] and then
    requires the end of input.  A lexer error anywhere in [src] wins
    over any exception the parse raises before reaching it, as if the
    whole text had been lexed first. *)
val parse : ?file:string -> string -> (t -> 'a) -> 'a

val peek : t -> Token.t
val peek2 : t -> Token.t

(** [peek_nth p 0 = peek p]. *)
val peek_nth : t -> int -> Token.t

(** Location of the current token. *)
val loc : t -> Fg_util.Loc.t

(** Span of the most recently consumed token. *)
val prev_loc : t -> Fg_util.Loc.t

val advance : t -> Token.t * Fg_util.Loc.t
val skip : t -> unit

(** Raise a parse error at the current token, reporting what was found. *)
val error : t -> ('a, Format.formatter, unit, 'b) format4 -> 'a

val expect : t -> Token.t -> Fg_util.Loc.t

(** Consume [tok] if present; report whether it was. *)
val eat : t -> Token.t -> bool

val expect_kw : t -> string -> unit
val at_kw : t -> string -> bool
val expect_lident : t -> string
val expect_uident : t -> string
val expect_int : t -> int

(** [sep_list p ~sep ~elem] parses [elem (sep elem)*]. *)
val sep_list : t -> sep:Token.t -> elem:(t -> 'a) -> 'a list

(** Fail unless the whole input was consumed. *)
val expect_eof : t -> unit
