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

type algorithm =
  | Naive          (** per-node {!Neighborhood.b} calls (Section 3.3) *)
  | Instrumented   (** single-pass {!Neighborhood.check} (Section 5.2) *)

val frag :
  ?schema:Shacl.Schema.t ->
  ?algorithm:algorithm ->
  ?budget:Runtime.Budget.t ->
  Rdf.Graph.t -> Shacl.Shape.t list -> Rdf.Graph.t
(** [frag g shapes] is [Frag(G, S)].  Default algorithm: [Instrumented].
    When [budget] is given the scan may raise [Runtime.Budget.Exhausted];
    use {!Engine.run} for graceful per-shape degradation instead. *)

val frag_schema :
  ?algorithm:algorithm ->
  ?budget:Runtime.Budget.t ->
  Shacl.Schema.t -> Rdf.Graph.t -> Rdf.Graph.t
(** [Frag(G, H)]: fragment for the schema's request shapes, with the
    schema in context for [hasShape] resolution. *)
