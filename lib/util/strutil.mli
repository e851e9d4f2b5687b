(** Small string utilities shared by the driver, the REPL and tests. *)

(** [contains ~needle hay] is true iff [needle] occurs in [hay] as a
    contiguous substring.  The empty needle is contained in every
    string. *)
val contains : needle:string -> string -> bool

(** Levenshtein edit distance (insert / delete / substitute, unit
    costs). *)
val levenshtein : string -> string -> int

(** [hex_encode s] — lowercase hexadecimal rendering of [s]'s bytes
    (the disk store's entry names and build identities). *)
val hex_encode : string -> string

(** [nearest ~candidates name] is the candidate closest to [name] in
    edit distance, provided the distance is small relative to the
    length of [name] (at most 2, and strictly less than the length);
    [None] when nothing is plausibly a typo for [name] (in particular
    when [candidates] is empty).  A candidate equal to [name] up to
    ASCII letter case is always plausible and preferred over any
    genuine edit.  Ties go to the earliest candidate. *)
val nearest : candidates:string list -> string -> string option
