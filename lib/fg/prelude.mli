(** A standard library written in FG itself: concepts (Eq, Ord,
    Semigroup, Monoid, Group, Iterator, OutputIterator, Container, with
    member defaults), models for the base types, parameterized models
    at [list t], and the generic algorithms the paper's STL motivation
    calls for.  Fragments are concrete-syntax declaration stacks that
    compose by concatenation. *)

val concepts : string
val int_models : string
val bool_models : string
val list_int_models : string
val list_parameterized_models : string
val algorithms : string

(** Everything above, in dependency order. *)
val full : string

(** [wrap body] is a complete program evaluating [body] under {!full}. *)
val wrap : string -> string

(** A literal [list int] in concrete syntax. *)
val int_list : int list -> string
