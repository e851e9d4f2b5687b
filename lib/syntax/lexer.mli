(** Hand-written scanner shared by the System F and FG parsers.
    Supports [//] line comments and nestable [/* ... */] block comments;
    ['<']/['>'] are always single tokens (so [C<D<int>>] lexes). *)

(** A lexed input: its tokens in order, the last one [EOF], each with
    its source span. *)
type tokens

(** Lex the whole input eagerly.  Raises a located lexer diagnostic on
    bad input. *)
val tokenize : ?file:string -> string -> tokens

(** Like {!tokenize}, but lexer errors are reported to [engine] (and the
    offending character skipped) instead of raising, so the scan reaches
    end of input and the result always ends in [EOF]. *)
val tokenize_recovering :
  engine:Fg_util.Diag.engine -> ?file:string -> string -> tokens

(** Number of tokens, [EOF] included. *)
val length : tokens -> int

(** [token ts i] and [loc ts i]: the [i]th token and its span (built on
    each call).  Raise [Invalid_argument] outside [0, length ts). *)
val token : tokens -> int -> Token.t

val loc : tokens -> int -> Fg_util.Loc.t
