(** Execution counters for instrumented validation.

    A mutable record of low-level work counts — memo-table traffic and
    path evaluations — threaded as an optional argument through
    {!Conformance} and [Provenance.Neighborhood].  Counting is off (and
    free) unless a caller supplies a record; the parallel fragment engine
    gives each worker its own record and sums them afterwards, so no
    synchronization is needed here.

    The intended invariant, checked by the test suite:
    [memo_lookups = memo_hits + memo_misses]. *)

type t = {
  mutable memo_lookups : int;  (** memo-table probes *)
  mutable memo_hits : int;     (** probes answered from the table *)
  mutable memo_misses : int;   (** probes that fell through to compute *)
  mutable path_evals : int;    (** path-expression evaluations [[E]](v) *)
  mutable store_lookups : int;
      (** adjacency-index probes made by path evaluation (the [lookup]
          hook of {!Rdf.Path.eval} and {!Rdf.Path.Batch}) *)
}

val create : unit -> t
(** A fresh all-zero record. *)

val add : into:t -> t -> unit
(** [add ~into c] accumulates [c] into [into], field by field. *)

val total : t list -> t
(** Field-wise sum of a list of records. *)
