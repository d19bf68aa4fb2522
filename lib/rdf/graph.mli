(** RDF graphs.

    A graph is a finite set of triples.  The implementation keeps three
    persistent indexes (SPO, POS and OSP) so that the access patterns of
    SHACL validation, neighborhood tracing and SPARQL evaluation — "objects
    of [s] via [p]", "subjects reaching [o] via [p]", "all triples around a
    node" — are logarithmic rather than linear.

    All operations are purely functional; graphs can be shared freely.

    The persistent maps are the {e builder} representation.  A {e
    frozen} graph also carries an interned, int-packed {!Store.t} (term
    dictionary + sorted-array indexes) that the read paths dispatch to.
    A graph built in memory is frozen by {!freeze}; read-heavy phases
    (validation, tracing) should freeze it once up front.  {!add} and
    {!remove} on a frozen graph drop the store; {!patch} (what
    {!Delta.apply} uses) patches it for the change instead, and {!thaw}
    drops it for a stream of updates that reads only the maps.  Frozen
    or not, a graph answers every query alike, list order included.

    A {e view} is a graph kept as rows of a store: all of them
    ({!of_store}; {!Turtle.parse} returns these) or some of them
    ({!of_rows}; the fragment engine, [Provenance.Engine.run], returns
    these).  {!cardinal}, {!fold}, {!iter}, {!to_list}, {!to_seq},
    {!mem}, {!mem_spo}, {!exists}, {!for_all}, {!subset}, {!equal} and
    {!Turtle.to_string} read the rows, and a parsed graph answers the
    other store-backed reads ({!subject_triples}, {!object_triples},
    {!predicate_triples}, {!out_predicates}, {!nodes}) from its store.
    So a parsed graph that is only validated or traced in id space
    ([Engine.validate], [Engine.run]) or printed, and a fragment that
    is only counted and printed, never builds maps.  Every other reader
    ({!objects}, {!subjects}, {!predicates_between}, {!subjects_all},
    {!predicates_all}, {!thaw}, and {!add}/{!remove}/{!patch}, which
    return builder graphs) builds the view's maps on first use and keeps
    them in the view, so it pays that once; two domains that do so at
    the same time both build equal maps, and either copy is kept.  A
    parsed graph is frozen on its own store.  A row view's {!store} and
    {!frozen} describe its own triples: they are [None] and [false]
    until {!freeze}, which builds a store of those triples alone. *)

type t

val empty : t
val is_empty : t -> bool

val cardinal : t -> int
(** Number of triples. *)

(** {1 Freezing} *)

val freeze : t -> t
(** Same triple set, with an interned {!Store.t} built for it
    ({!Store.of_triples}); the maps are kept.  Idempotent.  The first
    time it costs one hash per term occurrence, one sort of the [d]
    distinct terms and a few linear passes: [O(n + d log d)] for [n]
    triples.  The empty graph stays unfrozen. *)

val of_store : Store.t -> t
(** The frozen graph of a store's triple set, in [O(1)]: a view of
    every row of the store, with no maps.  The first reader that needs
    the maps (see above) builds all three by one linear walk over each
    of the store's sorted orders, on the dictionary's term copies. *)

val of_rows : Store.t -> int array -> t
(** [of_rows st rows] is the row view of [st]'s SPO rows [rows], which
    must be distinct and ascending (see {!Store.row_triple}).  [O(1)]:
    the array is kept, not copied, and must not be changed afterwards.
    No rows gives {!empty}. *)

val row_view : t -> (Store.t * int array) option
(** [Some (st, rows)] when the graph is a row view ({!of_rows}). *)

val frozen : t -> bool

val store : t -> Store.t option
(** The interned store, when the graph has been {!freeze}d. *)

val thaw : t -> t
(** The same triple set without the store: the maps view.  The maps are
    shared, not copied, so this is [O(1)] once they exist; a parsed
    graph that has not built them yet builds them here, by the same
    walk as {!of_store}, and keeps them for the original too.  {!add},
    {!remove} and {!patch} on the result cost [O(log n)] per triple and
    never touch a store, so a stream of small updates is cheap on it;
    {!freeze} or a {!patch} of the frozen original gives a store back.
    Identity on an unfrozen graph. *)

(** {1 Building} *)

val add : Term.t -> Iri.t -> Term.t -> t -> t
(** [add s p o g] adds the triple [(s, p, o)].  Raises [Invalid_argument]
    if [s] is a literal.  Adding an existing triple returns an equal
    graph. *)

val add_triple : Triple.t -> t -> t
val remove : Triple.t -> t -> t
val patch : removes:Triple.t list -> adds:Triple.t list -> t -> t
(** [patch ~removes ~adds g] removes [removes] from [g], then adds
    [adds].  If [g] is frozen the result is frozen too, with the store
    {!Store.patch}ed rather than rebuilt — in time linear in the store,
    not [O(n log n)] — and equal to the one {!freeze} would build.  This
    holds for an emptied result as well, which keeps an empty store
    (unlike [freeze empty]), so draining and refilling a frozen graph
    leaves it frozen.  An unfrozen [g] gives an unfrozen result. *)

val of_list : Triple.t list -> t
val to_list : t -> Triple.t list
(** In the canonical (subject, predicate, object) order. *)

(** {1 Set operations} *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool

(** {1 Membership and lookup} *)

val mem : Triple.t -> t -> bool
val mem_spo : Term.t -> Iri.t -> Term.t -> t -> bool

val objects : t -> Term.t -> Iri.t -> Term.Set.t
(** [objects g s p] is [{o | (s, p, o) ∈ g}] — the evaluation
    [[[p]]^G(s)]. *)

val subjects : t -> Iri.t -> Term.t -> Term.Set.t
(** [subjects g p o] is [{s | (s, p, o) ∈ g}] — the evaluation
    [[[p⁻]]^G(o)]. *)

val predicates_between : t -> Term.t -> Term.t -> Iri.Set.t
(** [predicates_between g s o] is [{p | (s, p, o) ∈ g}]. *)

val subject_triples : t -> Term.t -> Triple.t list
(** All triples with the given subject, ascending by (predicate,
    object). *)

val object_triples : t -> Term.t -> Triple.t list
(** All triples with the given object, ascending by (subject,
    predicate). *)

val predicate_triples : t -> Iri.t -> Triple.t list
(** All triples with the given predicate, ascending by (object,
    subject). *)

val out_predicates : t -> Term.t -> Iri.Set.t
(** Predicates of the outgoing edges of a node. *)

(** {1 Whole-graph views} *)

val nodes : t -> Term.Set.t
(** [N(G)]: all subjects and objects of triples in the graph. *)

val subjects_all : t -> Term.Set.t
val predicates_all : t -> Iri.Set.t

val fold : (Triple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Triple.t -> unit) -> t -> unit
val for_all : (Triple.t -> bool) -> t -> bool
val exists : (Triple.t -> bool) -> t -> bool
val filter : (Triple.t -> bool) -> t -> t
val to_seq : t -> Triple.t Seq.t

val pp : Format.formatter -> t -> unit
(** N-Triples, one triple per line. *)
