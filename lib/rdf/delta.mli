(** Batch graph deltas.

    A delta is a pair of triple sets: the triples to remove and the
    triples to add, applied in that order (so a triple appearing in both
    ends up present).  Deltas are the unit of change of the update
    journal and the incremental engine: {!apply} produces the updated
    graph, {!terms} lists the endpoints a change can affect (the terms
    the dependency index is probed with), and {!encode}/{!decode} give a
    self-contained byte representation for write-ahead logging.

    Application preserves the graph's representation contract —
    frozen in, frozen out: {!apply} patches a frozen graph's store for
    the change ({!Graph.patch}) instead of re-freezing, so a store never
    answers for the pre-delta triple set and an update costs what it
    touches. *)

type t = private {
  removes : Triple.t list;  (** applied first, in list order *)
  adds : Triple.t list;     (** applied second *)
}

val make : ?removes:Triple.t list -> ?adds:Triple.t list -> unit -> t

val empty : t
val is_empty : t -> bool

val size : t -> int
(** Number of triples mentioned ([removes] plus [adds]). *)

val apply : t -> Graph.t -> Graph.t
(** [apply d g] removes [d.removes] from [g], then adds [d.adds].
    Removing an absent triple and adding a present one are no-ops, as in
    {!Graph.remove}/{!Graph.add}.  If [g] was {!Graph.freeze}d the
    result is frozen too, with a store equal to a from-scratch freeze of
    the new triple set.  That includes a result the delta empties: it
    keeps an empty store (where [Graph.freeze Graph.empty] has none), so
    a stream of deltas that drains a frozen graph and refills it stays
    frozen at every step.  An unfrozen [g] gives an unfrozen result. *)

val effective : t -> Graph.t -> t
(** [effective d g] drops the no-ops: removals of triples absent from
    [g], additions of triples already present, removals of triples [d]
    also adds (the add wins, as in {!Graph.patch}) and repeats.  The
    result applies to [g] exactly like [d], its two lists are disjoint
    and duplicate-free, and its {!size} counts real changes. *)

(** {1 Net change of a stream}

    Folds a stream of deltas into one: per triple the last operation
    wins, and within one delta an add beats a remove (a delta removes
    first, then adds).  Applying {!Net.delta} once equals applying the
    noted deltas one by one, on any graph — so a frozen graph's store is
    patched once for the whole stream.  Journal replay and the
    incremental engine's lazily built store both use it. *)
module Net : sig
  type delta := t
  type t

  val create : unit -> t
  val note : t -> delta -> unit
  val is_empty : t -> bool
  (** No delta noted since {!create} or the last {!clear}. *)

  val delta : t -> delta
  (** The net change of every noted delta, each triple once. *)

  val clear : t -> unit
end

val terms : t -> Term.Set.t
(** The subjects and objects of every mentioned triple — the probe
    anchors a delta can invalidate (predicates are not terms and no
    evaluation is anchored at one). *)

val encode : t -> string
(** A self-contained byte encoding (big-endian length header plus two
    Turtle documents).  May contain arbitrary bytes, including newlines;
    callers needing framing must length-prefix it. *)

val decode : string -> (t, string) result
(** Inverse of {!encode} up to set semantics: the decoded delta has the
    same removal and addition {e sets} (duplicates collapsed, canonical
    order). *)

val pp : Format.formatter -> t -> unit
(** One line per triple, ["- <triple>"] then ["+ <triple>"]. *)
