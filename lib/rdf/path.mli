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
    This is the literal definition of [[E]]^G over the graph's
    persistent indexes, on frozen and unfrozen graphs alike; {!Batch}
    is its id-space counterpart on a frozen store. *)

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

(** {1 Id-space evaluation}

    {!Batch} evaluates [[[E]]^G(a)] on a frozen {!Store.t}: nodes are
    the dictionary's int ids, adjacency probes read the store's
    sorted-array ranges, and results are sorted, duplicate-free id
    arrays.  It runs {!eval}'s recursion and memoizes every
    (sub-path, direction, node) evaluation in a per-context table, so a
    sub-path reached again — from another source, another shape or
    another operator of the same path — is answered from the memo.
    Contexts share nothing; each verdict-pass decider keeps one (the
    engine has one decider per worker domain) and evaluates lazily, as
    deciding and collecting reach each path.
    Tracing ({!Batch.trace}) works in the same id space and emits
    canonical store row ids.

    {b Charge replay.}  The kernel calls [step] once per path-operator
    application and [lookup] once per adjacency probe, exactly like
    {!eval}; a memoized evaluation {e replays} its recorded charge to
    the hooks on every reuse.  Total charge — and therefore fuel
    accounting — is identical to evaluating each source independently
    with {!eval}; only the interleaving of [step]s and [lookup]s
    differs. *)

module Batch : sig
  type ctx
  (** A batch-evaluation context over one frozen store: the charge-
      replaying memo of per-(sub-path, direction, node) expansions.
      Not thread-safe — one per domain. *)

  val create :
    ?step:(unit -> unit) ->
    ?lookup:(unit -> unit) -> ?lookup_n:(int -> unit) ->
    Store.t -> ctx
  (** [lookup_n] is the bulk equivalent of [lookup] used when replaying
      a recorded charge of [n] probes; it defaults to calling [lookup]
      [n] times.  A replayed [step] charge is always [n] calls of
      [step]: a counter increment can be batched where a fuel tick
      sequence cannot. *)

  val eval : ctx -> t -> int -> int array
  (** [[[E]]^G(a)] as a sorted, duplicate-free id array.  Equals the
      {!eval} result (decoded), with equal total hook charge. *)

  val eval_inv : ctx -> t -> int -> int array

  val trace : ctx -> t -> sources:int array -> targets:int array -> int array
  (** {!trace_set} in id space: the canonical SPO row ids of
      [⋃ graph(paths(E, G, a, b))] over the given (sorted) source and
      target id arrays, sorted ascending.  Internal evaluations are
      answered from the context's memo with their charges replayed, so
      the [step] total matches the term-space trace. *)
end

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** SPARQL property-path syntax with full IRIs: [^E], [E₁/E₂], [E₁|E₂],
    [E*], [E?], parenthesized as needed. *)

val pp_with : (Format.formatter -> Iri.t -> unit) -> Format.formatter -> t -> unit
(** Like {!pp} but rendering property IRIs with the given printer (e.g. to
    use prefixed names). *)

val to_string : t -> string
