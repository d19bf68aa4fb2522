(** Parallel shape-fragment engine with target pruning, execution
    statistics and fault isolation.

    The engine computes the same function as {!Fragment.frag} — the
    naive algorithm of Section 3.3, kept as the reference oracle —
    through three stages:

    {ol
    {- {b Planning.}  Each request carries an optional target expression
       (available when the request comes from a schema definition).  When
       the target is monotone in the sense of [Analysis.Monotone] — the
       precondition of the paper's Conformance theorem 4.1, under which
       target evaluation is a sound candidate filter — the candidate set
       is the target nodes only: read from store ranges for the forms
       [Validate.fast_targets] answers (node, class, subjects-of and
       objects-of targets), decided by {!Neighborhood.verdicts} over the
       graph's nodes and the target's constants otherwise.  Otherwise
       the engine falls back to all graph nodes plus the shape's
       [hasValue] constants, exactly as {!Fragment.frag} does.
       Planning works on dictionary ids; a constant the dictionary
       never interned is carried as a term and merged in at its term
       rank, so candidates come in term order.}
    {- {b Sharding.}  Candidates are split into per-shape chunks and
       distributed over a pool of [jobs] domains pulling from a
       mutex-protected work queue.  Each chunk is evaluated with its
       own memo and its own {!Shacl.Counters} record: a verdict function
       of the worker's decider ({!Neighborhood.verdicts}) under the
       [`Batched] kernel, which also shares the decider's id-space
       kernel memo across the worker's chunks, or an instrumented
       checker under [`Per_node].  Workers share nothing but the
       immutable graph and schema.  An empty graph runs the same way
       over an empty store: every candidate is then a constant that
       occurs in no triple, decided on the empty graph, and nothing is
       collected.}
    {- {b Merging.}  Chunks accumulate result triples into private
       bitsets over the store's rows that are merged only when the
       chunk completes.  The fragment is the merged bitset's rows,
       returned as a row view of the store ({!Rdf.Graph.of_rows}):
       nothing is decoded into maps.}}

    {b Resilience.}  The chunk is also the engine's fault-isolation
    unit.  A chunk that raises — an injected [Runtime.Fault], an
    exhausted [Runtime.Budget], a stack overflow on an adversarial
    schema — contributes nothing, and the pool keeps draining; all
    domains are always joined.  Failed chunks are then retried once
    sequentially on the calling domain (parallel → sequential
    degradation) unless the budget is already spent.  A chunk that fails
    its retry marks its shape [FAILED] in the statistics; with
    [~on_error:`Skip] the run still completes and returns the fragments
    of every healthy shape — semantically sound partial output, since by
    the Sufficiency theorem (Thm 3.4) every computed neighborhood is
    independently valid — while the default [`Fail] re-raises the first
    error after the pool is fully joined.

    The result is deterministic: it does not depend on [jobs] or on
    scheduling.  Execution statistics (except wall-clock times) are
    deterministic for a fixed [jobs]. *)

type on_error = [ `Fail | `Skip ]
(** What to do with a shape whose evaluation ultimately failed:
    [`Fail] re-raises (after joining the pool), [`Skip] degrades to a
    partial result with the failure recorded in {!Stats}. *)

type kernel = [ `Batched | `Per_node ]
(** How a fragment run ({!run}) computes neighborhoods on a frozen
    graph.  [`Batched] (the default) decides, then traces: each chunk's
    candidates are decided by the verdict pass ({!Neighborhood.verdicts},
    the pass {!validate} runs) and the neighborhood of each conforming
    one is collected after it ([collect]), as store rows set straight
    into the chunk's bitset; paths are evaluated in the id-space kernel
    ({!Rdf.Path.Batch}), memoized in one decider per worker.
    [`Per_node] runs the term-space instrumented checker
    ({!Neighborhood.checker}, {!Rdf.Path.eval}), one node at a time; it
    is kept as a reference for the benches and tests, and its runs
    report no memo, path-evaluation or index-probe counts (those
    {!Stats} fields read 0).  Fragments are byte-identical between the
    two; statistics and fuel charges differ. *)

(** Execution statistics for one engine run. *)
module Stats : sig
  type shape_stat = {
    label : string;        (** shape name (schema runs) or printed shape *)
    pruned : bool;         (** candidate set restricted to target nodes *)
    candidates : int;      (** candidate nodes planned for this shape *)
    conforming : int;      (** candidates that conformed *)
    wall : float;          (** seconds of worker time spent on the shape *)
    failed : Runtime.Outcome.reason option;
        (** [Some r] when the shape's evaluation failed (after retry);
            its contribution to the fragment is then incomplete *)
  }

  type t = {
    jobs : int;            (** size of the domain pool *)
    nodes_checked : int;   (** total candidate checks, all shapes *)
    conforming : int;      (** total conforming candidates *)
    memo_lookups : int;    (** memo probes ([= memo_hits + memo_misses]) *)
    memo_hits : int;
    memo_misses : int;
    path_evals : int;      (** path-expression evaluations *)
    triples_emitted : int; (** size of the merged fragment *)
    retries : int;         (** failed chunks retried sequentially *)
    interned_terms : int;  (** terms in the frozen graph's dictionary *)
    store_lookups : int;
        (** adjacency-index probes made by path evaluation (each [Prop]
            or inverse-[Prop] application at a node) *)
    batch_calls : int;
    batch_sources : int;
    rows_materialized : int;
        (** Always 0: the engine evaluates paths lazily and has no
            priming pass to count.  Kept so existing readers of the
            record still compile. *)
    planning : float;      (** seconds spent planning candidate sets *)
    wall : float;          (** end-to-end seconds for the run *)
    shapes : shape_stat list;  (** per-request breakdown, request order *)
  }

  val degraded : t -> bool
  (** At least one shape failed: the output is partial. *)

  val failed_shapes : t -> (string * Runtime.Outcome.reason) list
  (** Labels and reasons of the failed shapes, request order. *)

  val pp : Format.formatter -> t -> unit
  (** Human-readable rendering; every duration is printed as [%.3fs] so
      output can be normalized in cram tests.  Failure and retry lines
      appear only on degraded runs, so healthy output is unchanged. *)
end

type request = {
  label : string;
  shape : Shacl.Shape.t;          (** the request shape to retrieve by *)
  target : Shacl.Shape.t option;  (** target expression, when known *)
}

val request : ?label:string -> Shacl.Shape.t -> request
(** An ad-hoc request with no target information (no pruning). *)

val request_of_def : Shacl.Schema.def -> request
(** The request [phi ∧ tau] of a schema definition, carrying [tau] so the
    planner may prune.  The shape is built with [Shape.and_], matching
    [Schema.request_shapes]. *)

val requests_of_schema : Shacl.Schema.t -> request list
(** The requests of the definitions of [Schema.unfold schema], in
    order: the same fragment as the schema as given, with no [hasShape]
    hops into single-use untargeted definitions. *)

val store_of : Rdf.Graph.t -> Rdf.Store.t
(** The store {!run} and {!validate} read: that of [Graph.freeze g], or
    an empty store for the empty graph.  [O(1)] on a parsed graph. *)

val run :
  ?schema:Shacl.Schema.t ->
  ?jobs:int ->
  ?budget:Runtime.Budget.t ->
  ?on_error:on_error ->
  ?kernel:kernel ->
  Rdf.Graph.t -> request list -> Rdf.Graph.t * Stats.t
(** [run g requests] computes [⋃ Frag(G, shape)] over the requests and
    reports statistics.  [jobs] defaults to 1 (no domains spawned);
    [budget] defaults to unlimited; [on_error] defaults to [`Fail].

    The fragment is a row view ({!Rdf.Graph.of_rows}) of the store of
    [Graph.freeze g]: its rows, ascending.  Counting, iterating,
    membership and {!Rdf.Turtle.to_string} read those rows; the first
    other reader builds its maps once.  It has no store of its own
    ({!Rdf.Graph.store} is [None]) until it is frozen.  An empty graph
    or an empty fragment gives {!Rdf.Graph.empty}.

    The pool spawns at most [Domain.recommended_domain_count ()]
    domains regardless of [jobs] — oversubscribing a machine's cores
    only costs GC barriers.  Work is still chunked by [jobs], so the
    output and the deterministic statistics of [-j N] are the same on
    every machine; only wall-clock time depends on the hardware. *)

val fragment :
  ?schema:Shacl.Schema.t ->
  ?jobs:int ->
  Rdf.Graph.t -> Shacl.Shape.t list -> Rdf.Graph.t
(** Drop-in equivalent of {!Fragment.frag}: ad-hoc request shapes, no
    pruning. *)

val fragment_schema :
  ?jobs:int ->
  Shacl.Schema.t -> Rdf.Graph.t -> Rdf.Graph.t
(** Drop-in equivalent of {!Fragment.frag_schema}, with target pruning
    for monotone targets. *)

val validate :
  ?jobs:int ->
  ?budget:Runtime.Budget.t ->
  ?on_error:on_error ->
  Shacl.Schema.t -> Rdf.Graph.t -> Shacl.Validate.report * Stats.t
(** Parallel, instrumented equivalent of [Validate.validate]: each
    definition's target nodes are planned in id space by the planner
    {!run} uses, sharded across the pool and checked for conformance
    only (no provenance is collected; [triples_emitted] is 0) by the
    verdict pass ({!Neighborhood.verdicts}): one decider per worker, a
    fresh verdict function per chunk.  The memo line of {!Stats} counts
    the pass's arena (one lookup per memoized subshape reached), path
    evaluations count its bare-step scans, sequence steps, star walks
    and kernel evaluations, and store probes add the kernel's probes;
    all repeat exactly at a fixed [jobs].  Each memo miss and path
    evaluation spends one unit of [budget]; planning is not charged.
    The report — including the order of its results — is identical to
    the sequential one, except that with [~on_error:`Skip] a failed
    definition's results are excluded wholesale (the report then covers
    exactly the definitions that were fully checked, and
    {!Stats.degraded} is true). *)
