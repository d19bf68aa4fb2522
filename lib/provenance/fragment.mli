(** Shape fragments (Section 4): subgraph retrieval through shapes.

    The fragment of [g] for a set [S] of request shapes is

    [Frag(G, S) = ⋃ { B(v, G, phi) | v ∈ N, phi ∈ S }]

    (equivalently, [v] ranging over the nodes of [g], since neighborhoods
    are subgraphs).  For a schema [H], the fragment requests the
    conjunction of each shape with its target:
    [Frag(G, H) = Frag(G, {phi ∧ tau | (s, phi, tau) ∈ H})].

    The Conformance theorem (4.1) — verified in the test suite — states
    that if [g] conforms to a schema with monotone targets, so does
    [Frag(G, H)]. *)

val frag :
  ?schema:Shacl.Schema.t ->
  ?budget:Runtime.Budget.t ->
  Rdf.Graph.t -> Shacl.Shape.t list -> Rdf.Graph.t
(** [frag g shapes] is [Frag(G, S)], computed literally: every graph
    node and [hasValue] constant is checked with the naive algorithm of
    Section 3.3 ({!Neighborhood.naive_checker}) and the neighborhoods
    are united.  It is the test oracle; {!Engine.fragment} computes the
    same graph through the verdict pass and its row collector.
    When [budget] is given the scan may raise [Runtime.Budget.Exhausted];
    use {!Engine.run} for graceful per-shape degradation instead. *)

val frag_schema :
  ?budget:Runtime.Budget.t ->
  Shacl.Schema.t -> Rdf.Graph.t -> Rdf.Graph.t
(** [Frag(G, H)]: fragment for the schema's request shapes, with the
    schema in context for [hasShape] resolution. *)
