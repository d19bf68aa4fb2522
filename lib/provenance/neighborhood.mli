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

    Two implementations are provided: {!b} follows the naive per-case
    algorithm of Section 3.3 (conformance checks and tracing are separate
    recursive passes), while {!check} is the "instrumented validator" of
    Section 5.2 — a single pass that decides conformance and collects the
    neighborhood simultaneously.  They compute the same function. *)

val b :
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Rdf.Term.t -> Shacl.Shape.t -> Rdf.Graph.t
(** [b ~schema g v phi] is [B(v, G, phi)].  The shape is put in negation
    normal form internally, so any shape is accepted.  Results for shared
    subproblems are memoized within one call. *)

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
  ?path_memo:Shacl.Path_memo.t ->
  ?touched:(Rdf.Term.t -> unit) ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * Rdf.Graph.t)
(** Batch variant of {!check}: the shape is normalized once and one memo
    table is shared across all focus nodes, which is how an instrumented
    validator processes the target nodes of a shape.  Used by
    {!Fragment.frag}, the parallel engine and the overhead experiment.
    When [counters] is given, memo traffic and path evaluations are
    accumulated into it.  When [budget] is given, each memo lookup and
    path evaluation spends one unit of fuel and the returned closure may
    raise [Runtime.Budget.Exhausted] at those safe points.  When
    [path_memo] is given, [[E]](v) evaluations are shared through it —
    including across separate [checker] instances handed the same
    table.

    When [touched] is given, it receives the anchor of every graph
    probe the evaluation makes — each focus node visited plus every
    path-probe anchor (see {!Rdf.Path.eval}'s [visit]).  The collected
    anchors are a sound dependency set for the (verdict, neighborhood)
    pair: an update whose triples have neither endpoint among them
    cannot change the result.  Supplying [touched] bypasses
    [path_memo] (a memo hit would hide probes from the collector), and
    anchors accumulate across {e all} nodes checked through one
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
  ?base:Rdf.Path.Batch.base ->
  Rdf.Graph.t -> row_env
(** [row_env ~budget g] is a fresh context over [g]'s frozen store,
    charging step fuel to [budget] — pass the same budget the checkers
    using it are given — and store probes to [counters] (the same
    charges per-node evaluation would make).  When [base] is given,
    kernel evaluations the engine primed up front are adopted from it:
    a primed entry counts as a path-memo hit and replays its recorded
    budget charge only when reached through {!Rdf.Path.Batch.eval}.
    [lookup] overrides the [counters]-derived probe hook — the engine
    passes an indirection so one worker-lifetime context can charge
    whichever chunk's counter record is current — and [lookup_n] is its
    bulk form for charge replay.  Raises [Invalid_argument] when [g]
    has no frozen store. *)

val row_checker :
  ?counters:Shacl.Counters.t ->
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  ?path_memo:Shacl.Path_memo.t ->
  ?env:row_env ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * int array)
(** Like {!checker}, but the neighborhood is returned as a sorted,
    duplicate-free array of canonical SPO row ids of the frozen store —
    the batched engine ORs these straight into its fragment bitset, and
    tracing runs in the id-space kernel ({!Rdf.Path.Batch}) with the
    same total budget charge as the term-space trace.  Compound-path
    evaluations also run in the kernel (bare steps stay on the
    persistent term maps, which already hold their answer).  When [env]
    is given the kernel context is shared with other checkers of the
    same worker instead of created fresh.  Decoding row [r] with
    [Rdf.Store.row_triple] yields exactly the triples {!checker} would
    have returned.  A focus node the store's dictionary never interned
    occurs in no triple, so it gets {!checker}'s verdict (over
    [path_memo], when given) and no rows.  Raises [Invalid_argument]
    when [g] has no frozen store ([Rdf.Graph.freeze] it first). *)

val naive_checker :
  ?counters:Shacl.Counters.t ->
  ?budget:Runtime.Budget.t ->
  ?schema:Shacl.Schema.t ->
  Rdf.Graph.t -> Shacl.Shape.t -> (Rdf.Term.t -> bool * Rdf.Graph.t)
(** Batch variant of {!b}, with the conformance verdict alongside the
    neighborhood (empty when the node does not conform), mirroring
    {!checker} so the two algorithms are interchangeable downstream. *)
