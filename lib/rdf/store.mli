(** Frozen, interned, int-packed triple store (the graph's query core).

    Built in one bulk pass — by {!Turtle.parse} straight from the
    parsed id columns, or by {!Graph.freeze} from a graph's triples —
    and then only {!patch}ed.  Every term is interned into a {!Dict}
    (dense ids in [Term.compare] order) and the triples are packed into
    three sorted int-column indexes — SPO, POS and OSP row orderings —
    so every access pattern of SHACL validation and provenance tracing
    is a contiguous row range.  Each ordering keeps per-id row offsets
    of its leading column ([n_terms + 1] ints, one counting pass at
    build and patch time): a subject's, predicate's or object's rows
    are two array reads, and a two-id range is a binary search inside
    one id's rows.  Immutable after construction; safe to share across
    domains.

    Id-boundary rules: functions suffixed [_ids]/[_range] and the
    [fold_*] callbacks speak dense int ids; terms cross the boundary
    only through {!id}/{!pred_id} (encode) and {!term}/{!row_triple}
    (decode).  A term absent from the dictionary does not occur in the
    graph, so every query about it answers empty. *)

type t

val of_interned : Dict.t -> n:int -> int array -> int array -> int array -> t
(** [of_interned dict ~n s p o] is the store of the rows
    [(s.(i), p.(i), o.(i))] for [i < n] (duplicates are removed), whose
    entries are ids of [dict] in any numbering — typically first-seen
    order, as {!Dict.intern} assigns them.  Every term of [dict] must
    occur in some row.  [dict] is renumbered in place ({!Dict.sort}) and
    becomes the store's; the columns are only read.

    The one build: ranks the distinct terms with one sort, then orders
    the rows by stable counting-sort passes over the id columns — three
    for SPO, two each to derive POS from SPO and OSP from POS — each
    [O(rows + terms)]. *)

val of_triples : Triple.t array -> t
(** Build from a triple array (duplicates are removed): interns the
    terms in first-seen order, then {!of_interned}. *)

val patch : t -> removes:Triple.t list -> adds:Triple.t list -> t
(** [patch t ~removes ~adds] is the store of [(G - removes) ∪ adds],
    where [G] is [t]'s triple set: {!equal} to {!of_triples} on that
    set, ids and row order included, but built from [t] in
    [O(triples + terms)] with no sort of the old rows.  Absent removes,
    present adds and duplicates are no-ops; a triple in both lists
    stays.  When no term enters or leaves the graph, the dictionary is
    shared with [t]. *)

val equal : t -> t -> bool
(** Same dictionary (term of every id), same rows in all three
    orderings, same node set. *)

val n_triples : t -> int
val n_terms : t -> int
val dict : t -> Dict.t

(** {1 Encode / decode} *)

val id : t -> Term.t -> int option
val pred_id : t -> Iri.t -> int option
val term : t -> int -> Term.t
val is_node_id : t -> int -> bool
(** The id occurs in subject or object position. *)

val nodes : t -> Term.Set.t
(** [N(G)], decoded once at build time and shared. *)

(** {1 Membership} *)

val mem : t -> Term.t -> Iri.t -> Term.t -> bool
val mem_ids : t -> int -> int -> int -> bool

(** {1 Row identity}

    A triple's identity is its row index in the canonical SPO ordering:
    the engine's per-worker accumulators are bitsets over these rows. *)

val triple_row : t -> int -> int -> int -> int option
val row_triple : t -> int -> Triple.t
val row_of_triple : t -> Triple.t -> int option

(** {1 Ranges (ids)}

    Each returns a half-open row interval [\[lo, hi)] in the named
    ordering; the matching column accessors read single cells.  Any
    int is accepted: an id outside the dictionary, or one with no rows
    in that position, has an empty range.  The [_range] functions
    allocate their pair; the [_lo]/[_hi] functions are its two halves,
    for loops that must not allocate. *)

val objects_range : t -> s:int -> p:int -> int * int
(** SPO rows of [(s, p, _)], objects ascending. *)

val objects_lo : t -> s:int -> p:int -> int
val objects_hi : t -> s:int -> p:int -> int
val spo_obj : t -> int -> int
val spo_pred : t -> int -> int
val spo_subj : t -> int -> int

val subjects_range : t -> p:int -> o:int -> int * int
(** POS rows of [(_, p, o)], subjects ascending. *)

val subjects_lo : t -> p:int -> o:int -> int
val subjects_hi : t -> p:int -> o:int -> int
val pos_subj : t -> int -> int
val pos_obj : t -> int -> int
val pos_pred : t -> int -> int

val preds_range : t -> o:int -> s:int -> int * int
(** OSP rows of [(s, _, o)], predicates ascending. *)

val osp_pred : t -> int -> int
val osp_subj : t -> int -> int
val osp_obj : t -> int -> int

val subject_range : t -> int -> int * int
(** SPO rows of a subject. *)

val subject_lo : t -> int -> int
val subject_hi : t -> int -> int

val object_range : t -> int -> int * int
(** OSP rows of an object. *)

val predicate_range : t -> int -> int * int
(** POS rows of a predicate. *)

(** {1 Term-level views} *)

val subject_triples : t -> Term.t -> Triple.t list
val object_triples : t -> Term.t -> Triple.t list
val predicate_triples : t -> Iri.t -> Triple.t list
val out_predicates : t -> Term.t -> Iri.Set.t
