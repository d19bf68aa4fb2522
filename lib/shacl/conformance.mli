(** Conformance of nodes to shapes — Table 1 of the paper.

    Defines the satisfaction relation [H, G, a ⊨ phi]: whether focus node
    [a] conforms to shape [phi] in graph [g], in the context of schema
    [h] (used to resolve [hasShape] references). *)

val conforms :
  ?budget:Runtime.Budget.t ->
  Schema.t -> Rdf.Graph.t -> Rdf.Term.t -> Shape.t -> bool
(** [conforms h g a phi] is [H, G, a ⊨ phi].  When [budget] is given it
    is consumed at memo lookups and path evaluations, and the check may
    raise [Runtime.Budget.Exhausted]. *)

val checker :
  ?counters:Counters.t -> ?budget:Runtime.Budget.t ->
  Schema.t -> Rdf.Graph.t -> Shape.t ->
  Rdf.Term.t -> bool
(** [checker h g phi] is a batch variant of {!conforms}: partially applied
    to a shape it returns a closure sharing a memo table across focus
    nodes, so validating many nodes against one shape does not recompute
    shared subproblems (e.g. conformance of common successors to
    quantifier bodies).  When [counters] is given, memo traffic and path
    evaluations are accumulated into it.  When [budget] is given, each
    memo lookup and path evaluation spends one unit of fuel, and the
    returned closure may raise [Runtime.Budget.Exhausted] — the fuel
    guard that turns unbounded recursion over adversarial schemas into a
    clean, catchable failure instead of a stack overflow. *)

val memoized :
  ?counters:Counters.t -> ?budget:Runtime.Budget.t ->
  Schema.t -> Rdf.Graph.t ->
  Rdf.Term.t -> Shape.t -> bool
(** Like {!checker}, but sharing one memo table across arbitrary shapes
    (partially apply to the schema and graph). *)

val conforming_nodes :
  ?budget:Runtime.Budget.t ->
  Schema.t -> Rdf.Graph.t -> Shape.t -> Rdf.Term.Set.t
(** The shape viewed as a unary query: all nodes of [N(G)] — plus the
    constants mentioned in [hasValue] subshapes of [phi], so that node
    targets work even for isolated nodes — that conform to [phi]. *)
