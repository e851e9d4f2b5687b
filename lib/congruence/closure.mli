(** Congruence closure over uninterpreted function symbols — the
    decision procedure for the quantifier-free theory of equality that
    System FG's same-type constraints reduce to (paper Section 5, citing
    Nelson and Oppen's O(n log n) algorithm).

    Terms are interned into a node graph; {!merge} asserts an equality
    and propagates it upward through congruence ([a = b] implies
    [f(a) = f(b)]); {!equiv} answers queries; {!repr} returns the
    canonical member of a term's class — the FG translation emits this
    representative for every type in a class. *)

type t

(** An empty closure.

    Every operation that interns terms can merge classes, and takes the
    representative preference as [?prefer]: [prefer a b] returns
    whichever of two candidate terms should represent their merged
    class; the default prefers the smaller term.  Pass the same
    preference to every call on one closure.  The closure itself holds
    no functions, so it marshals as plain data. *)
val create : unit -> t

type prefer = Term.t -> Term.t -> Term.t

(** Bumped on every class merge; lets clients cache query results. *)
val generation : t -> int

(** Number of interned nodes. *)
val size : t -> int

(** Intern a term (and its subterms), returning its node id.  If a
    congruent node already exists, the new node joins its class. *)
val add : ?prefer:prefer -> t -> Term.t -> int

(** Assert that two terms are equal. *)
val merge : ?prefer:prefer -> t -> Term.t -> Term.t -> unit

(** Does the equality of the two terms follow from the assertions? *)
val equiv : ?prefer:prefer -> t -> Term.t -> Term.t -> bool

(** The preferred member of the term's class, rebuilt recursively so
    every subterm is also canonical.  [max_depth] (default 10000) guards
    against cyclic equalities such as [x = f(x)], which have no finite
    canonical form; exceeding it raises an internal diagnostic. *)
val repr : ?prefer:prefer -> ?max_depth:int -> t -> Term.t -> Term.t

(** All equivalence classes among interned terms (tests only). *)
val classes : t -> Term.t list list

val count_classes : t -> int
