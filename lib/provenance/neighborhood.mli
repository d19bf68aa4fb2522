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

    The paper's two algorithms compute the same function:

    - the naive algorithm ({!b}, {!naive_checker}) follows the per-case
      algorithm of Section 3.3: conformance checks and tracing are
      separate recursive passes over the literal Table 2 decomposition
      ({!local_parts}).  It is the test oracle;
    - the instrumented validator of Section 5.2 ({!check},
      {!checker}) is a single pass over the term graph that decides
      conformance and collects the neighborhood as a graph.  It
      resolves the shape once per checker: structurally equal subshapes
      share one node and one memo partition.

    On a frozen store, the fragment engine follows the naive split in id
    space: the verdict pass ({!verdicts}) decides Table 1 alone, with a
    byte per memoized (subshape, node) verdict, and its row collector
    ([collect]) walks Table 2 after it, reading every verdict it needs
    from that memo and emitting store row ids.  {!check_with} is {!check}
    on that route, for one focus node. *)

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
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  ?touched:(Rdf.Term.t -> unit) ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * Rdf.Graph.t)
(** Batch variant of {!check}: the shape is resolved once and one memo
    is shared across all focus nodes, which is how an instrumented
    validator processes the target nodes of a shape.  It is the
    per-node evaluator: {!check} and {!why_not} (serve [neighborhood],
    perfbench's reference, the examples), the incremental state's
    per-pair supports, [Engine.run ~kernel:`Per_node] and the overhead
    experiment run it.
    Successive checkers of one (physical) shape and schema on a domain
    share that domain's resolution of it, so call a checker on the
    domain that created it.
    When [budget] is given, each memo lookup and path evaluation spends
    one unit of fuel and the returned closure may raise
    [Runtime.Budget.Exhausted] at those safe points.  Path expressions
    are evaluated by {!Rdf.Path.eval}.

    When [touched] is given, it receives the anchor of every graph
    probe the evaluation makes — each focus node visited plus every
    path-probe anchor (see {!Rdf.Path.eval}'s [visit]).  The collected
    anchors are a sound dependency set for the (verdict, neighborhood)
    pair: an update whose triples have neither endpoint among them
    cannot change the result.  Anchors accumulate across {e all} nodes checked through one
    [checker] instance — use one instance per focus node when per-node
    attribution matters, as the incremental engine does. *)

(** {1 Verdict pass}

    Conformance alone (Table 1), decided in a frozen store's id space —
    what {!Engine.validate} runs, and what {!Engine.run} decides
    candidates with before it collects their rows.  It resolves a shape
    exactly as the instrumented checker does (hash-consed subshapes,
    [hasShape] expansions on demand) and decides one focus id at a time,
    depth first, stopping [≥n], [≤n] and [∀] as soon as their verdict is
    known.  Deciding collects nothing: each non-trivial (subshape, node)
    verdict is one byte of the decider's arena, so a decision allocates
    nothing of its own in steady state.  Bare [p] and [p⁻] steps are scanned in
    place from store ranges; compound paths are evaluated by the
    decider's {!Rdf.Path.Batch} context.  Verdicts equal
    {!Shacl.Conformance}'s. *)

type decider
(** A worker's decision state over one store: the memo arena, the
    compound-path kernel context and the budget.  Not thread-safe: one
    per worker domain. *)

val decider : ?budget:Runtime.Budget.t -> Rdf.Store.t -> decider
(** [decider ~budget st] is a fresh decider.  Each memo miss and each
    path evaluation spends one unit of [budget] (and may raise
    [Runtime.Budget.Exhausted]); the kernel charges its steps to it,
    replaying a memoized evaluation's recorded charge on every reuse.
    The kernel's adjacency probes, replays included, go to the counters
    of the current verdict function ({!verdicts}), so a worker-lifetime
    decider charges whichever chunk is being decided.  The arena grows
    to one byte per (subshape, term) for the subshapes reached, up to
    [max (64 × terms) 16 MiB] bytes; verdicts past it go to a table. *)

type verdicts = {
  of_id : int -> bool;  (** the verdict at a store id *)
  of_term : Rdf.Term.t -> bool;
      (** the verdict at a term; a term the dictionary never interned
          occurs in no triple and is decided by
          {!Shacl.Conformance.conforms} on the empty graph *)
  collect : int -> (int -> unit) -> unit;
      (** [collect v emit] sends [emit] the canonical SPO row ids
          ({!Rdf.Store.row_triple} decodes them) of [B(v, G, phi)], for a
          store id [v] that [of_id] accepted.  It walks Table 2 over the
          resolved subshapes, reading each witness verdict — the bodies
          of [≥n], the negated body of [≤n], the disjuncts of [or] — from
          the verdict memo, and evaluates and traces paths in the
          decider's kernel context.  A (subshape, node) pair is collected
          once per verdict function, so the rows of pairs an earlier
          [collect] reached are not sent again: give every [collect] of
          one function the same sink.  Rows may repeat within one call. *)
}

val verdicts :
  ?counters:Shacl.Counters.t ->
  ?schema:Shacl.Schema.t ->
  decider -> Shacl.Shape.t -> verdicts
(** [verdicts d phi] decides [phi] with a memo that starts empty: a new
    generation of [d]'s arena, not a new allocation.  It charges memo
    traffic ([memo_*]: one lookup per non-trivial subshape reached),
    path evaluations, bare-step probes and the kernel's probes
    ([store_lookups]) to [counters]; [collect] charges its path
    evaluations there too, and spends one unit of budget per collected
    pair and per path evaluation.  The functions are valid until the next [verdicts] on
    [d], and raise [Invalid_argument] after it. *)

val check_with :
  ?schema:Shacl.Schema.t ->
  decider -> Rdf.Term.t -> Shacl.Shape.t -> bool * Rdf.Graph.t
(** [check_with ~schema d v phi] is {!check} on the graph of [d]'s store,
    read from the store alone: a new {!verdicts} function decides [v],
    and its [collect] gathers the rows of [B(v, G, phi)], returned as a
    row view of the store ({!Rdf.Graph.of_rows}).  A focus the
    dictionary never interned has an empty neighborhood.  One decider
    serves any number of calls, each from an empty memo.  CLI
    [neighborhood] runs it. *)

val naive_checker :
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * Rdf.Graph.t)
(** Batch variant of {!b}, with the conformance verdict alongside the
    neighborhood (empty when the node does not conform), mirroring
    {!checker} so the two algorithms are interchangeable downstream. *)
