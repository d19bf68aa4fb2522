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
    or leaving the candidate set (target sets are recomputed exactly per
    delta), are touched.

    The support set strictly contains the terms of the neighborhood —
    neighborhoods alone are {e not} a sound dependency set: a vacuously
    satisfied [<= n] constraint has an empty neighborhood yet its
    verdict can be flipped by adding a two-hop path, which the probe
    anchors do record.  (Theorem 3.4 bounds what can be {e removed}
    without breaking a verdict; additions need the anchors.)

    The maintained fragment is patched in place through a triple
    refcount (a triple leaves when the last neighborhood containing it
    does), and {!report}/{!fragment} reproduce {!Engine.validate} and
    {!Engine.run} on the current graph byte-for-byte. *)

type t

val create : schema:Shacl.Schema.t -> Rdf.Graph.t -> t
(** Full initial evaluation: every (definition, candidate) pair is
    checked once, as a from-scratch run would. *)

val graph : t -> Rdf.Graph.t
(** The current graph (frozen). *)

val fragment : t -> Rdf.Graph.t
(** The maintained schema fragment — equal to
    [fst (Engine.run ~schema g (Engine.requests_of_schema schema))] on
    the current graph. *)

val report : t -> Shacl.Validate.report
(** The maintained validation report — equal (including result order)
    to [fst (Engine.validate schema g)] on the current graph. *)

type update_stats = {
  removed : int;    (** triples actually removed by the delta *)
  added : int;      (** triples actually added *)
  dirty : int;      (** stored pairs invalidated by the dependency index *)
  rechecked : int;  (** pair evaluations performed (dirty + entered) *)
}

val apply : t -> Rdf.Delta.t -> update_stats
(** Apply one delta: update the graph, re-derive target sets, recheck
    exactly the dirty and entering pairs, and patch the fragment. *)

type stats = {
  pairs : int;            (** stored (definition, node) pairs *)
  fragment_triples : int;
  updates : int;          (** deltas applied since {!create} *)
  total_dirty : int;      (** summed over all applied deltas *)
  total_rechecked : int;
}

val stats : t -> stats
