(** Hand-written scanner shared by the System F and FG parsers.
    Supports [//] line comments and nestable [/* ... */] block comments;
    ['<']/['>'] are always single tokens (so [C<D<int>>] lexes). *)

(** A scan of one input that stops after each token. *)
type scanner

(** [scanner ?file ?recover src] starts at the beginning of [src].
    Without [recover], a lexer error raises a located diagnostic from
    the {!next} call that meets it.  With [recover], it is reported to
    the engine instead and the offending character skipped, so every
    scan reaches [EOF]. *)
val scanner : ?file:string -> ?recover:Fg_util.Diag.engine -> string -> scanner

(** The file name spans carry. *)
val file : scanner -> string

(** [next sc spans b] scans the next token and writes its span into
    [spans.(b)] .. [spans.(b + 5)]: start line, column and offset, then
    end line, column and offset.  After the last token every call
    returns [EOF] again. *)
val next : scanner -> int array -> int -> Token.t

(** The span {!next} wrote at [spans.(b)]. *)
val span : file:string -> int array -> int -> Fg_util.Loc.t

(** Scan to the end of input, discarding the tokens: raises the first
    lexer error left in the text (or reports every one, when
    recovering). *)
val drain : scanner -> unit

(** A whole input's tokens in order, the last one [EOF], each with its
    source span. *)
type tokens

(** Drain a fresh scanner into a {!tokens}.  Raises a located lexer
    diagnostic on bad input. *)
val tokenize : ?file:string -> string -> tokens

(** Number of tokens, [EOF] included. *)
val length : tokens -> int

(** [token ts i] and [loc ts i]: the [i]th token and its span (built on
    each call).  Raise [Invalid_argument] outside [0, length ts). *)
val token : tokens -> int -> Token.t

val loc : tokens -> int -> Fg_util.Loc.t
