(** A per-(path, node) memo table for [[E]](v) evaluations.

    Distinct shapes of a schema routinely walk the same property paths
    from the same focus nodes (in the paper's survey suite nearly every
    shape starts with the [rdf:type/rdfs:subClassOf*] class path).  The
    graph is immutable during a run and {!Rdf.Path.eval} is pure, so
    its results can be shared safely across checkers.  The engine's
    batched validation gives every chunk of work its own table over a
    {!base} it primed set-at-a-time, and threads it through
    {!Conformance.checker}.

    Entries are keyed per graph (by {!Rdf.Graph.uid}) as well as per
    (path, node), so a table that outlives one graph never serves a
    result computed on a different triple set.

    Not thread-safe: use one table per domain.

    A hit costs one {!Runtime.Budget.tick} where the evaluation it
    replaces would have ticked per visited edge, so budget/fuel
    accounting differs (only ever in the cheaper direction) from
    unmemoized evaluation. *)

type t

type base
(** A read-only second layer underneath the per-domain table, filled up
    front by the batched kernel ({!Rdf.Path.eval_batch}) and shared
    across worker domains.  Safe to read concurrently once priming is
    done: nothing writes to it afterwards, and an OCaml [Hashtbl] with
    no writers never resizes. *)

val create : ?base:base -> unit -> t
(** [create ?base ()] is a fresh per-domain table; misses fall through
    to [base] (when given) before evaluating. *)

val base_create : unit -> base

val base_merge : into:base -> base -> unit
(** Merge one worker's primed tables into a shared base (per-node
    entries of the same (graph, path) table are combined). *)

val worth_memoizing : Rdf.Path.t -> bool
(** Whether the table caches this path at all: bare forward/inverse
    steps ([p], [p⁻]) are cheaper to re-evaluate than to hash. *)

val prime :
  ?counters:Counters.t ->
  base -> Runtime.Budget.t -> Rdf.Graph.t -> Rdf.Path.t ->
  Rdf.Term.t array -> unit
(** [prime base budget g e nodes] fills [base] with [[E]](v)] for every
    [v] in [nodes] not already primed, using one
    {!Rdf.Path.eval_batch} kernel call for all nodes the frozen store's
    dictionary knows (counted in [batch_calls] / [batch_sources] /
    [rows_materialized]) and the per-node core for stray constants.
    Charges the budget's step hook exactly what per-node evaluation of
    the missing nodes would, but does {e not} tick per node — the tick
    is paid by the later {!eval} hit, as in the unprimed path.  Paths
    {!worth_memoizing} rejects are skipped.  Raises
    [Runtime.Budget.Exhausted] like any evaluation when fuel runs
    out. *)

val eval :
  ?counters:Counters.t ->
  t -> Runtime.Budget.t -> Rdf.Graph.t -> Rdf.Path.t -> Rdf.Term.t ->
  Rdf.Term.Set.t
(** [eval table budget g e a] is [[E]](a) on [g], answered from the
    table when present.  Bare forward/inverse steps ([p] and [p⁻])
    bypass the table — a single index lookup is as cheap as the hash —
    and count only a [path_eval].  Compound paths count a
    [path_memo_lookup] plus a hit or a miss; a miss also counts a
    [path_eval], so [path_evals] reflects real evaluations exactly as
    in the unmemoized path. *)
