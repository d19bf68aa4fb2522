(** Parallel shape-fragment engine with target pruning, execution
    statistics and fault isolation.

    The engine computes the same function as {!Fragment.frag} — the
    sequential implementation stays as the reference oracle — through
    three stages:

    {ol
    {- {b Planning.}  Each request carries an optional target expression
       (available when the request comes from a schema definition).  When
       the target is monotone in the sense of [Analysis.Monotone] — the
       precondition of the paper's Conformance theorem 4.1, under which
       target evaluation is a sound candidate filter — the candidate set
       is the target nodes only, answered from the graph indexes by
       [Validate.fast_targets] where possible.  Otherwise the engine falls
       back to all graph nodes plus the shape's [hasValue] constants,
       exactly as {!Fragment.frag} does.}
    {- {b Sharding.}  Candidates are split into per-shape chunks and
       distributed over a pool of [jobs] domains pulling from a
       mutex-protected work queue.  Each chunk is checked with its own
       instrumented {!Neighborhood.checker} (private memo table, private
       {!Shacl.Counters} record), so workers share nothing but the
       immutable graph and schema.}
    {- {b Merging.}  Chunks accumulate result triples into private hash
       tables that are merged only when the chunk completes, and the
       fragment graph is built in a single pass.}}

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
(** How path expressions are evaluated on a frozen graph.  [`Batched]
    (the default) evaluates each distinct (path, candidate-set) pair of
    the planned shapes once, set-at-a-time, before the pool runs:
    {!validate} primes a read-only {!Shacl.Path_memo} base shared by
    every worker through {!Rdf.Path.eval_batch}, and instrumented
    fragment runs prime the kernel's id-space base and accumulate
    neighborhoods as store-row sets instead of graphs
    ({!Neighborhood.row_checker}).  [`Per_node] is the classic engine:
    every path evaluation anchored at one node at a time, as naive
    fragment runs ([~algorithm:Naive]) are under either kernel.  Fragments,
    reports and verdicts are byte-identical between the two; statistics
    differ ([batch_calls] &c. are zero under [`Per_node], and the
    batched kernel may charge a budget for path evaluations the
    per-node engine would have short-circuited past). *)

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
    path_memo_lookups : int;
        (** per-(path, node) memo probes of compound paths
            ([= path_memo_hits + path_memo_misses]) — a hit is an
            evaluation answered by the chunk's memo table or the
            primed base; nonzero only under [`Batched] *)
    path_memo_hits : int;
    path_memo_misses : int;
    triples_emitted : int; (** size of the merged fragment *)
    retries : int;         (** failed chunks retried sequentially *)
    interned_terms : int;  (** terms in the frozen graph's dictionary *)
    store_lookups : int;
        (** adjacency-index probes made by path evaluation (each [Prop]
            or inverse-[Prop] application at a node) *)
    batch_calls : int;
        (** batched path-kernel invocations ({!Rdf.Path.eval_batch};
            one per (path, source-set) priming).  Zero under
            [`Per_node]. *)
    batch_sources : int;
        (** source nodes evaluated across all batch calls *)
    rows_materialized : int;
        (** target cells materialized by batch calls (a dense-compacted
            relation counts its shared row once) *)
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

val run :
  ?schema:Shacl.Schema.t ->
  ?algorithm:Fragment.algorithm ->
  ?jobs:int ->
  ?budget:Runtime.Budget.t ->
  ?on_error:on_error ->
  ?kernel:kernel ->
  ?restrict:(Rdf.Term.t -> bool) ->
  Rdf.Graph.t -> request list -> Rdf.Graph.t * Stats.t
(** [run g requests] computes [⋃ Frag(G, shape)] over the requests and
    reports statistics.  [jobs] defaults to 1 (no domains spawned);
    [budget] defaults to unlimited; [on_error] defaults to [`Fail].

    [restrict] drops planned candidate nodes it rejects — the {e graph}
    stays whole, so every kept candidate is still checked (and its
    neighborhood traced) against all of [g].  This is the cluster-shard
    contract: partition the node space with one [restrict] per shard and
    the union of the per-shard fragments is exactly the unrestricted
    fragment, because [Frag] is a union of per-candidate neighborhoods
    (Thm 4.1) and each candidate is owned by exactly one shard.

    The pool spawns at most [Domain.recommended_domain_count ()]
    domains regardless of [jobs] — oversubscribing a machine's cores
    only costs GC barriers.  Work is still chunked by [jobs], so the
    output and the deterministic statistics of [-j N] are the same on
    every machine; only wall-clock time depends on the hardware. *)

val fragment :
  ?schema:Shacl.Schema.t ->
  ?algorithm:Fragment.algorithm ->
  ?jobs:int ->
  Rdf.Graph.t -> Shacl.Shape.t list -> Rdf.Graph.t
(** Drop-in equivalent of {!Fragment.frag}: ad-hoc request shapes, no
    pruning. *)

val fragment_schema :
  ?algorithm:Fragment.algorithm ->
  ?jobs:int ->
  Shacl.Schema.t -> Rdf.Graph.t -> Rdf.Graph.t
(** Drop-in equivalent of {!Fragment.frag_schema}, with target pruning
    for monotone targets. *)

val validate :
  ?jobs:int ->
  ?budget:Runtime.Budget.t ->
  ?on_error:on_error ->
  ?kernel:kernel ->
  ?restrict:(Rdf.Term.t -> bool) ->
  Shacl.Schema.t -> Rdf.Graph.t -> Shacl.Validate.report * Stats.t
(** Parallel, instrumented equivalent of [Validate.validate]: target
    nodes of each definition are sharded across the pool and checked for
    conformance only (no provenance is collected; [triples_emitted] is
    0).  [restrict] keeps only the target nodes it accepts, as in
    {!run}: per-shard reports cover disjoint targets and their check and
    violation counts sum to the unrestricted run's.  The report — including the order of its results — is identical
    to the sequential one, except that with [~on_error:`Skip] a failed
    definition's results are excluded wholesale (the report then covers
    exactly the definitions that were fully checked, and {!Stats.degraded}
    is true). *)
