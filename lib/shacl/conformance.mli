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

val focus_paths : Schema.t -> Shape.t -> Rdf.Path.t list
(** The path expressions [phi] evaluates {e at the focus node} — the
    paths of quantifiers, [eq]/[disj] with a path operand, the order
    comparisons and [uniqueLang], with [hasShape] references resolved
    through the schema.  Quantifier {e bodies} are not descended into:
    they are checked at the path's targets, not at the focus.  Sorted
    and duplicate-free; invariant under {!Shape.nnf}.  This is the set
    the engine's instrumented fragment runs prime in the id-space
    kernel ({!Rdf.Path.Batch}) per candidate-node set. *)

val count_path_satisfying :
  Schema.t -> Rdf.Graph.t -> Rdf.Term.t -> Rdf.Path.t -> Shape.t -> int
(** [♯{b ∈ [[E]]^G(a) | H,G,b ⊨ phi}] — exposed for reuse by validation
    reports and benchmarks. *)
