(** Hash-consed term dictionary: {!Term.t} ↔ dense int ids.

    The interned graph core ({!Store}) maps every term of a graph to a
    dense integer id so that adjacency can be packed into int arrays and
    compared with int comparisons instead of string/literal comparisons.
    [term] returns the single stored copy of each term — decoding at a
    result boundary yields physically shared terms. *)

type t

val create : ?hint:int -> unit -> t

val of_sorted : Term.t array -> t
(** [of_sorted terms] builds a dictionary over distinct, [Term.compare]-
    sorted terms, assigning ids by rank: id order agrees with term
    order, so ordered id iteration decodes to term-ordered output. *)

val intern : t -> Term.t -> int
(** Id of the term, adding it if absent (ids in first-seen order). *)

val sort : t -> int array
(** [sort t] renumbers [t]'s ids in place by rank in [Term.compare]
    order — the ids {!of_sorted} would assign — and returns the map from
    each old id to its new one.  One sort of the distinct terms; no term
    is hashed again. *)

val find : t -> Term.t -> int option
(** Read-only lookup; [None] for terms never interned. *)

val term : t -> int -> Term.t
(** The (hash-consed) term of an id.  Raises [Invalid_argument] when the
    id is out of range. *)

val size : t -> int
(** Number of interned terms. *)

val finds : t -> int
(** Number of [find] probes answered so far (diagnostic; approximate
    when the dictionary is probed from several domains). *)
