(** SHACL/SPARQL property-path expressions.

    Implements the grammar [E := p | E⁻ | E/E | E ∪ E | E* | E?] of the
    paper (Section 2), its evaluation [[[E]]^G] to a binary relation on
    terms (via {!eval}, {!eval_inv} and {!pairs}), and — the ingredient the
    provenance semantics is built on — the subgraph
    [graph(paths(E, G, a, b))] traced out by all [E]-paths from [a] to [b]
    (Section 3.2), via {!trace}.

    {!trace} satisfies Proposition 3.1 of the paper: for
    [F = trace g e a b], [(a,b) ∈ [[E]]^G] iff [(a,b) ∈ [[E]]^F]. *)

type t =
  | Prop of Iri.t        (** a single property [p] *)
  | Inv of t             (** inverse path [E⁻] *)
  | Seq of t * t         (** sequence [E₁/E₂] *)
  | Alt of t * t         (** alternative [E₁ ∪ E₂] *)
  | Star of t            (** zero-or-more [E*] *)
  | Opt of t             (** zero-or-one [E?] *)

val prop : string -> t
(** [prop s] is [Prop (Iri.of_string s)]. *)

val seq_list : t list -> t
(** Right-nested sequence of a non-empty list.  Raises [Invalid_argument]
    on the empty list. *)

val alt_list : t list -> t
(** Right-nested alternative of a non-empty list. *)

val plus : t -> t
(** One-or-more, encoded as [E/E*] (how SHACL's [sh:oneOrMorePath] is
    translated in Appendix A of the paper). *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Evaluation} *)

val eval :
  ?step:(unit -> unit) -> ?lookup:(unit -> unit) ->
  ?visit:(Term.t -> unit) ->
  Graph.t -> t -> Term.t -> Term.Set.t
(** [eval g e a] is [[[E]]^G(a) = {b | (a,b) ∈ [[E]]^G}].  For [E*] and
    [E?] this includes [a] itself (the identity is over all of [N]).
    [step] is called once per path-operator application — a hook for
    evaluation budgets; any exception it raises aborts the evaluation.
    [lookup] is called once per adjacency-index probe (each [Prop] /
    inverse-[Prop] application at a node) — a hook for index-traffic
    counters.  [visit] is called with the {e anchor} of every such
    probe: the node a forward probe reads outgoing edges of, or an
    inverse probe reads incoming edges of.  The anchors form a sound
    dependency set — a triple (s, p, o) can only change probes anchored
    at [s] (forward) or [o] (inverse), so an evaluation whose anchors
    avoid both endpoints of every changed triple is unaffected by the
    change; the incremental engine keys its dirtiness index on them.
    On a {!Graph.freeze}d graph, compound paths are evaluated on the
    interned store's int ids; both cores call [step] and [lookup]
    identically and return the same set.  When [visit] is supplied the
    term-map core is used (the hook wants terms, not ids) — same
    result and same hook sequence, without per-probe id decoding. *)

val eval_inv :
  ?step:(unit -> unit) -> ?lookup:(unit -> unit) ->
  ?visit:(Term.t -> unit) ->
  Graph.t -> t -> Term.t -> Term.Set.t
(** [eval_inv g e b] is [{a | (a,b) ∈ [[E]]^G}]. *)

val holds : Graph.t -> t -> Term.t -> Term.t -> bool
(** [holds g e a b] iff [(a,b) ∈ [[E]]^G]. *)

val pairs : Graph.t -> t -> (Term.t * Term.t) list
(** [[[E]]^G] restricted to [N(G)] (as in Lemma 5.1 of the paper): for
    [E*] and [E?] the identity pairs range over the nodes of [g] only. *)

(** {1 Path tracing} *)

val trace :
  ?step:(unit -> unit) -> ?visit:(Term.t -> unit) ->
  Graph.t -> t -> Term.t -> Term.t -> Graph.t
(** [trace g e a b] is [graph(paths(E, G, a, b))]: the union of the triples
    underlying every [E]-path from [a] to [b] in [g].  Empty when no such
    path exists.  Note that zero-length paths (through [E?] or [E*]) trace
    no triples, per the paper's definition [paths(E?, G) = paths(E, G)].
    [step] and [visit] are forwarded to the internal path evaluations, as
    in {!eval}; tracing probes backwards from the targets too, so its
    anchor set is not contained in the forward evaluation's. *)

val trace_all :
  ?step:(unit -> unit) -> ?visit:(Term.t -> unit) ->
  Graph.t -> t -> Term.t -> targets:Term.Set.t ->
  Graph.t
(** [trace_all g e a ~targets] is [⋃ {trace g e a x | x ∈ targets}],
    computed with shared traversal state. *)

val trace_set :
  ?step:(unit -> unit) -> ?visit:(Term.t -> unit) ->
  Graph.t -> t -> sources:Term.Set.t -> targets:Term.Set.t -> Graph.t
(** [⋃ {trace g e a b | a ∈ sources, b ∈ targets}] in one pass per path
    operator (midpoints and star zones are aggregated over the whole
    source/target sets rather than per pair). *)

(** {1 Batched (set-at-a-time) evaluation}

    The per-node core above evaluates [[[E]]^G(a)] one anchor at a time;
    the batch kernel below propagates a whole set of sources through the
    frozen store's sorted-array indexes in one pass — bitset frontiers,
    a delta-driven (semi-naive) fixpoint for [Star], and memoized
    per-(sub-path, node) expansions shared across every source of the
    batch.  Results are grouped by source in a {!Relation.t}.

    {b Charge parity.}  The kernel calls [step] once per path-operator
    application and [lookup] once per adjacency probe, exactly like the
    per-node core; a memoized expansion {e replays} its recorded charge
    to the hooks on every reuse.  Total charge — and therefore fuel
    accounting — is identical to evaluating each source independently;
    only the interleaving of [step]s and [lookup]s differs. *)

module Batch : sig
  type ctx
  (** A batch-evaluation context over one frozen store: the charge-
      replaying memo of per-(sub-path, direction, node) expansions.
      Not thread-safe — one per domain, like [Shacl.Path_memo]. *)

  type base
  (** A read-only second layer underneath per-worker contexts, filled by
      {!export} after a set-at-a-time priming pass and shared across
      domains.  Safe to read concurrently once nothing writes to it (a
      [Hashtbl] with no writers never resizes). *)

  val base_create : unit -> base

  val base_merge : into:base -> base -> unit
  (** Merge one worker's exported entries into a shared base. *)

  val create :
    ?step:(unit -> unit) -> ?step_n:(int -> unit) ->
    ?lookup:(unit -> unit) -> ?lookup_n:(int -> unit) ->
    ?base:base -> Store.t -> ctx
  (** Entries missing from the context's own memo are adopted from
      [base] (when given) with their recorded charges replayed, exactly
      as a memo hit would.
      [step_n]/[lookup_n] are bulk equivalents of [step]/[lookup] used
      when replaying a recorded charge of [n] units; they default to
      calling the unit hook [n] times and exist because a counter
      increment can be batched where a fuel tick sequence cannot. *)

  val export : ctx -> into:base -> unit
  (** Publish every memo entry of the context — sub-path expansions
      included — into [into].  Call before the base is shared; never
      after. *)

  val eval_cached : ctx -> t -> int -> int array option
  (** The memoized (or primed) forward targets of [(E, a)], without
      replaying any charge — for memo layers above the kernel whose
      hits must stay charge-free.  [None] when never evaluated. *)

  val base_mem : ctx -> t -> int -> bool
  (** Whether the primed base holds a forward entry for [(E, a)]. *)

  val intern : ctx -> t -> int
  (** The context's id for a path expression (assigned on first use);
      structurally equal paths share one id.  Exposed so memo layers
      above the kernel can build int keys without re-hashing path
      structure. *)

  val memo_size : ctx -> int
  (** Number of memo entries currently held (priming statistics). *)

  val eval : ctx -> t -> int -> int array
  (** [[[E]]^G(a)] as a sorted, duplicate-free id array.  Equals the
      per-node {!eval} result (decoded), with equal total hook charge. *)

  val eval_inv : ctx -> t -> int -> int array

  val trace : ctx -> t -> sources:int array -> targets:int array -> int array
  (** {!trace_set} in id space: the canonical SPO row ids of
      [⋃ graph(paths(E, G, a, b))] over the given (sorted) source and
      target id arrays, sorted ascending.  Internal evaluations are
      answered from the context's memo with their charges replayed, so
      the [step] total matches the per-node trace. *)
end

val eval_batch :
  ?step:(unit -> unit) -> ?lookup:(unit -> unit) ->
  Store.t -> t -> sources:Bitset.t -> Relation.t
(** [[[E]]^G] restricted to [sources], grouped by source; compacted to
    the dense layout when every source saturates to the same row. *)

val eval_batch_inv :
  ?step:(unit -> unit) -> ?lookup:(unit -> unit) ->
  Store.t -> t -> sources:Bitset.t -> Relation.t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** SPARQL property-path syntax with full IRIs: [^E], [E₁/E₂], [E₁|E₂],
    [E*], [E?], parenthesized as needed. *)

val pp_with : (Format.formatter -> Iri.t -> unit) -> Format.formatter -> t -> unit
(** Like {!pp} but rendering property IRIs with the given printer (e.g. to
    use prefixed names). *)

val to_string : t -> string
