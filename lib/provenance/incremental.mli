(** Provenance-driven incremental revalidation (the living-graph use of
    Theorem 3.4).

    The engine keeps, for every definition [i] of the schema and every
    candidate node [v], the (verdict, neighborhood) pair of the
    definition's request shape [phi ∧ tau] at [v] — the same pairs a
    from-scratch {!Engine.run}/{!Engine.validate} computes — together
    with the {e support set} of the evaluation: the anchor of every
    graph probe it made (collected through {!Neighborhood.checker}'s
    [touched] hook).

    {b Dirtiness rule.}  A delta triple [(s, p, o)] can only change
    probes anchored at [s] (forward) or [o] (inverse).  So a stored
    pair whose support contains neither endpoint of any delta triple
    re-evaluates to exactly the same verdict, neighborhood and support
    on the updated graph — it is skipped wholesale.  Only the pairs hit
    by the dependency index (support term → pairs), plus nodes entering
    or leaving the candidate set (a target set is re-derived exactly
    whenever the delta touches a predicate its form reads), are
    touched.

    The support set strictly contains the terms of the neighborhood —
    neighborhoods alone are {e not} a sound dependency set: a vacuously
    satisfied [<= n] constraint has an empty neighborhood yet its
    verdict can be flipped by adding a two-hop path, which the probe
    anchors do record.  (Theorem 3.4 bounds what can be {e removed}
    without breaking a verdict; additions need the anchors.)

    The maintained fragment is patched in place through a triple
    refcount (a triple leaves when the last neighborhood containing it
    does), and {!report}/{!fragment} reproduce {!Engine.validate} and
    {!Engine.run} on the current graph byte-for-byte.

    {b Memory.}  A stored pair keeps its neighborhood as a sorted
    [Rdf.Triple.t array] and its support set as a sorted
    [Rdf.Term.t array]: the refcount and the dependency index only
    iterate them, so no per-pair graph indexes or set trees are held.
    On the 57-shape survey over a 9,680-triple graph (25,724 pairs)
    the state holds about 13 MB live, against 35 MB with a persistent
    graph and term set per pair.

    {b The graph.}  The live graph is the persistent maps view
    ({!graph}); an update patches it in [O(k log n)] and builds no store.
    A store is built only when an id-space reader asks ({!frozen}), by
    one {!Rdf.Store.patch} of the net change since the last build — one
    patch per version read instead of one per update. *)

type t

val create : ?jobs:int -> schema:Shacl.Schema.t -> Rdf.Graph.t -> t
(** Full initial evaluation: every (definition, candidate) pair is
    checked once, as a from-scratch run would, each by its own fresh
    {!Neighborhood.checker}.  The pairs are independent and are
    evaluated on [jobs] domains (default 1; capped at the core count
    by {!Workers.spawn_pool}, and [jobs <= 1] spawns none), then
    entered into the state one by one in (definition, node) order — so
    the state, and every later {!apply}, {!update_stats} and view, is
    the same for any [jobs]. *)

val graph : t -> Rdf.Graph.t
(** The current graph, as the maps view ({!Rdf.Graph.thaw}): it has no
    store, and {!apply} patches it in [O(k log n)] for a [k]-triple
    delta.  Term-space readers — neighborhoods, {!Shacl.Conformance},
    Turtle output — take it as it is; {!Rdf.Graph.freeze} on it would
    re-freeze the whole graph, so id-space readers take {!frozen}. *)

val frozen : t -> Rdf.Graph.t
(** The current graph, frozen, for id-space readers ({!Engine.run},
    {!Engine.validate}).  Built on demand: the first call after an
    update patches the last frozen graph for the net change since
    ({!Rdf.Delta.Net}, one {!Rdf.Store.patch}: linear in the store, no
    sort), so a store costs one patch per version read, not one per
    update.  Memoized until the next update: with no update in between,
    calls return the same value.  The store equals a from-scratch
    freeze of {!graph}'s triples.  A graph empty since {!create} has no
    store, as with {!Rdf.Graph.freeze}; one drained later keeps an empty
    store. *)

val fragment : t -> Rdf.Graph.t
(** The maintained schema fragment — equal to
    [fst (Engine.run ~schema g (Engine.requests_of_schema schema))] on
    the current graph. *)

val report : t -> Shacl.Validate.report
(** The maintained validation report — equal (including result order)
    to [fst (Engine.validate schema g)] on the current graph. *)

val conforms : t -> bool
(** [(report t).conforms], read off maintained counts: no report is
    built. *)

val checks : t -> int
(** [List.length (report t).results] — the number of (target,
    definition) pairs — without building the report. *)

val violations : t -> int
(** [List.length (Shacl.Validate.violations (report t))] without
    building the report. *)

type update_stats = {
  removed : int;    (** triples actually removed by the delta *)
  added : int;      (** triples actually added *)
  dirty : int;      (** stored pairs invalidated by the dependency index *)
  rechecked : int;  (** pair evaluations performed (dirty + entered) *)
}

val apply : t -> Rdf.Delta.t -> update_stats
(** Apply one delta ({!Rdf.Delta.effective} on the current graph):
    patch the maps view ({!graph}) and note the change for {!frozen},
    move the target sets the delta can move, recheck exactly the dirty
    and entering pairs, and patch the fragment and the verdict counts.
    A target whose form reads none of the delta's predicates (see
    {!Shacl.Validate.target_reads}) keeps its set; one that reads some
    re-tests only the endpoints of those triples against the target
    shape ({!Shacl.Conformance.conforms}).  Only forms
    {!Shacl.Validate.fast_targets} does not answer, and class targets
    under an [rdfs:subClassOf] change, are re-derived exactly.  The counts move by the
    nodes that entered, left or were rechecked, so a definition costs
    its dirty pairs and moved targets, not its target set. *)

type stats = {
  pairs : int;            (** stored (definition, node) pairs *)
  fragment_triples : int;
  updates : int;          (** deltas applied since {!create} *)
  total_dirty : int;      (** summed over all applied deltas *)
  total_rechecked : int;
}

val stats : t -> stats
