(** Neighborhoods: the provenance semantics for SHACL (Section 3).

    The neighborhood [B(v, G, phi)] of node [v] in graph [g] with respect
    to shape [phi] — in the context of a schema [h] — is the subgraph of
    [g] containing the triples that witness [v]'s conformance to [phi],
    as defined case-by-case in Table 2 of the paper.  When [v] does not
    conform to [phi], the neighborhood is empty.

    The defining properties, both verified by the test suite:

    - {b Sufficiency} (Theorem 3.4): if [G, v ⊨ phi] then [G', v ⊨ phi]
      for every [G'] with [B(v,G,phi) ⊆ G' ⊆ G].
    - {b Why-not provenance} (Remark 3.7): when [v] does not conform,
      [B(v, G, ¬phi)] explains the non-conformance.

    Two algorithms compute the same function:

    - the naive algorithm ({!b}, {!naive_checker}) follows the per-case
      algorithm of Section 3.3: conformance checks and tracing are
      separate recursive passes over the literal Table 2 decomposition
      ({!local_parts}).  It is the test oracle;
    - the instrumented validator of Section 5.2 is a single pass that
      decides conformance and collects the neighborhood.  Its Table 2 is
      written once, against a node space, and instantiated twice: over
      the term graph ({!check}, {!checker}), where the neighborhood is a
      graph, and over the ids of a frozen store ({!row_checker}), where
      paths are evaluated and traced by the id-space kernel
      ({!Rdf.Path.Batch}) and the neighborhood comes back as store row
      ids.  Both resolve the shape once per checker: structurally equal
      subshapes share one node and one memo partition.

    Validation needs no neighborhood: the verdict pass ({!verdicts})
    decides Table 1 alone over the same resolved subshapes, in a frozen
    store's id space, with a byte per memoized (subshape, node)
    verdict. *)

val b :
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Rdf.Term.t -> Shacl.Shape.t -> Rdf.Graph.t
(** [b ~schema g v phi] is [B(v, G, phi)].  The shape is put in negation
    normal form internally, so any shape is accepted.  Results for shared
    subproblems are memoized within one call. *)

val local_parts :
  ?schema:Shacl.Schema.t ->
  conforms:(Rdf.Term.t -> Shacl.Shape.t -> bool) ->
  Rdf.Graph.t -> Rdf.Term.t -> Shacl.Shape.t ->
  Rdf.Graph.t * (Rdf.Term.t * Shacl.Shape.t) list
(** One Table 2 case, assuming [v] conforms to the NNF shape [phi]: the
    triples the case contributes itself (path traces and explicit
    triples) and the obligations [(x, psi)] whose neighborhoods it
    includes — every one that conforms, by [conforms].  {!b} is the
    union of the local triples over the conforming obligations,
    recursively; [Annotated] tags each local triple with [phi]. *)

val check :
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Rdf.Term.t -> Shacl.Shape.t -> bool * Rdf.Graph.t
(** [check ~schema g v phi] decides conformance and computes the
    neighborhood in a single instrumented pass: returns
    [(conforms, B(v,G,phi))], the graph being empty when [conforms] is
    false. *)

val why_not :
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Rdf.Term.t -> Shacl.Shape.t -> Rdf.Graph.t option
(** [why_not ~schema g v phi] is [Some (B(v, G, ¬phi))] when [v] does not
    conform to [phi] — the explanation of the failure — and [None] when it
    does conform. *)

val checker :
  ?counters:Shacl.Counters.t ->
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  ?touched:(Rdf.Term.t -> unit) ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * Rdf.Graph.t)
(** Batch variant of {!check}: the shape is resolved once and one memo
    is shared across all focus nodes, which is how an instrumented
    validator processes the target nodes of a shape.  Used by
    {!Fragment.frag}, the parallel engine and the overhead experiment.
    Successive checkers of one (physical) shape and schema on a domain
    share that domain's resolution of it, so call a checker on the
    domain that created it.
    When [counters] is given, memo traffic and path evaluations are
    accumulated into it.  When [budget] is given, each memo lookup and
    path evaluation spends one unit of fuel and the returned closure may
    raise [Runtime.Budget.Exhausted] at those safe points.  Path
    expressions are evaluated by {!Rdf.Path.eval}.

    When [touched] is given, it receives the anchor of every graph
    probe the evaluation makes — each focus node visited plus every
    path-probe anchor (see {!Rdf.Path.eval}'s [visit]).  The collected
    anchors are a sound dependency set for the (verdict, neighborhood)
    pair: an update whose triples have neither endpoint among them
    cannot change the result.  Anchors accumulate across {e all} nodes checked through one
    [checker] instance — use one instance per focus node when per-node
    attribution matters, as the incremental engine does. *)

type row_env
(** A worker-lifetime id-space evaluation context shared across
    {!row_checker} instances: the kernel's evaluation and whole-trace
    memos are sound across shapes (entries depend only on the frozen
    store) and every memo hit replays its recorded per-node-equivalent
    budget charge, so sharing changes wall-clock but neither results
    nor budget totals.  Not thread-safe: one per worker domain. *)

val row_env :
  ?budget:Runtime.Budget.t ->
  ?counters:Shacl.Counters.t ->
  ?lookup:(unit -> unit) ->
  ?lookup_n:(int -> unit) ->
  Rdf.Graph.t -> row_env
(** [row_env ~budget g] is a fresh context over [g]'s frozen store,
    charging step fuel to [budget] — pass the same budget the checkers
    using it are given — and store probes to [counters] (the same
    charges per-node evaluation would make).  [lookup] overrides the
    [counters]-derived probe hook — the engine passes an indirection so
    one worker-lifetime context can charge whichever chunk's counter
    record is current — and [lookup_n] is its bulk form for charge
    replay.  Raises [Invalid_argument] when [g]
    has no frozen store. *)

val row_checker :
  ?counters:Shacl.Counters.t ->
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  ?env:row_env ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * int array)
(** Like {!checker}, but the neighborhood is returned as a sorted,
    duplicate-free array of canonical SPO row ids of the frozen store —
    the batched engine ORs these straight into its fragment bitset, and
    tracing runs in the id-space kernel ({!Rdf.Path.Batch}) with the
    same total budget charge as the term-space trace.  Every path
    evaluation runs in the kernel too ({!Rdf.Path.Batch.eval}): bare
    steps skip the path-memo hit accounting; a compound path counts as
    a memo hit when this checker evaluated it at that node before, and
    as a miss otherwise.  When [env] is given the kernel context — the
    worker's one kernel memo — is shared with other checkers of the
    same worker instead of created fresh; a kernel entry another
    checker created is still a miss here and replays its recorded
    charge, so counts do not depend on which checker came first.
    Decoding row [r] with [Rdf.Store.row_triple] yields exactly the
    triples {!checker} would have returned.  A focus node the store's
    dictionary never interned occurs in no triple, so it gets
    {!checker}'s verdict and no rows.  Raises [Invalid_argument] when
    [g] has no frozen store ([Rdf.Graph.freeze] it first). *)

(** {1 Verdict pass}

    Conformance alone (Table 1), decided in a frozen store's id space —
    what {!Engine.validate} runs.  It resolves a shape exactly as the
    instrumented checkers do (hash-consed subshapes, [hasShape]
    expansions on demand) and decides one focus id at a time, depth
    first, stopping [≥n], [≤n] and [∀] as soon as their verdict is known.
    Nothing is collected: each non-trivial (subshape, node) verdict is
    one byte of the decider's arena, so a decision allocates nothing of
    its own in steady state.  Bare [p] and [p⁻] steps are scanned in
    place from store ranges; compound paths are evaluated by the
    decider's {!Rdf.Path.Batch} context.  Verdicts equal
    {!Shacl.Conformance}'s. *)

type decider
(** A worker's decision state over one store: the memo arena, the
    compound-path kernel context and the budget.  Not thread-safe: one
    per worker domain. *)

val decider :
  ?budget:Runtime.Budget.t ->
  ?lookup:(unit -> unit) ->
  ?lookup_n:(int -> unit) ->
  Rdf.Store.t -> decider
(** [decider ~budget st] is a fresh decider.  Each memo miss and each
    path evaluation spends one unit of [budget] (and may raise
    [Runtime.Budget.Exhausted]); the kernel charges its steps to it
    like {!row_env}.  [lookup]/[lookup_n] receive the kernel's
    adjacency-probe charges, as in {!row_env}.  The arena grows to one
    byte per (subshape, term) for the subshapes reached, up to
    [max (64 × terms) 16 MiB] bytes; verdicts past it go to a table. *)

type verdicts = {
  of_id : int -> bool;  (** the verdict at a store id *)
  of_term : Rdf.Term.t -> bool;
      (** the verdict at a term; a term the dictionary never interned
          occurs in no triple and is decided by
          {!Shacl.Conformance.conforms} on the empty graph *)
}

val verdicts :
  ?counters:Shacl.Counters.t ->
  ?schema:Shacl.Schema.t ->
  decider -> Shacl.Shape.t -> verdicts
(** [verdicts d phi] decides [phi] with a memo that starts empty: a new
    generation of [d]'s arena, not a new allocation.  It charges memo
    traffic ([memo_*]: one lookup per non-trivial subshape reached),
    path evaluations and bare-step probes ([store_lookups]) to
    [counters].  The functions are valid until the next [verdicts] on
    [d], and raise [Invalid_argument] after it. *)

val naive_checker :
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * Rdf.Graph.t)
(** Batch variant of {!b}, with the conformance verdict alongside the
    neighborhood (empty when the node does not conform), mirroring
    {!checker} so the two algorithms are interchangeable downstream. *)
