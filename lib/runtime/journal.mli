(** Crash-recoverable update journal: a write-ahead log of graph deltas.

    A journal directory holds two files:

    - [journal.log] — the append-only segment.  Each record is
      [ [u32 len] [u32 crc] [payload] ] with big-endian fixed-width
      integers; the payload is an [u64] monotone sequence number
      followed by the {!Rdf.Delta.encode} bytes, and the CRC-32 (IEEE)
      covers the whole payload.
    - [snapshot.ttl] — a Turtle dump of the graph with every record up
      to some sequence number applied, carrying that number in a
      [# shaclprov-snapshot seq=N] header line.  {!snapshot} writes it
      atomically (temp file + rename in the same directory) and then
      truncates the segment.

    {b Durability contract.}  {!append} returns only after the record
    is written — and, under the [Always] policy, fsynced — so a caller
    that acknowledges an update after {!append} returns can never lose
    it to a crash.  Conversely, if {!append} raises (I/O error or an
    injected [journal.append]/[journal.fsync] fault) the partial record
    is truncated away before the exception escapes: an update that was
    {e not} acknowledged is never replayed.  A SIGKILL between the two
    can leave at most one complete un-acknowledged record.

    {b Recovery contract.}  {!recover} replays [snapshot + log] and
    distinguishes two failure shapes.  A {e torn tail} — the file ends
    in an incomplete record, or the final record's checksum fails — is
    the expected residue of a crash mid-append; it is truncated away and
    recovery succeeds.  A bad checksum or sequence discontinuity {e
    followed by further data} means the segment was damaged in place;
    recovery raises {!Corrupt} with the byte offset, because silently
    dropping acknowledged records would break the durability contract.

    Crash-safety of snapshotting: a crash before the rename keeps the
    old snapshot and full log; after the rename but before the truncate,
    replay skips the records the new snapshot already covers (their
    sequence numbers are [<= N]). *)

type t

type policy =
  | Always       (** fsync every append before returning (the default) *)
  | Every of int (** fsync every [n]-th append — bounded-loss batching *)
  | Never        (** leave flushing to the OS *)

val policy_of_string : string -> (policy, string) result
(** ["always"], ["never"], or ["every:N"] with [N >= 1]. *)

val pp_policy : Format.formatter -> policy -> unit

exception Corrupt of { path : string; offset : int; reason : string }
(** Unrecoverable damage: the record at [offset] is invalid but is not a
    torn tail.  The CLI reports it and exits 123. *)

type recovery = {
  journal : t;
  graph : Rdf.Graph.t;   (** snapshot plus every decoded record, applied *)
  last_seq : int;        (** highest sequence number recovered; 0 if none *)
  replayed : int;        (** records applied on top of the snapshot *)
  discarded : int;       (** torn-tail bytes truncated from the segment *)
  fresh : bool;          (** no snapshot and no records existed *)
}

val recover : ?policy:policy -> string -> recovery
(** [recover dir] opens (creating the directory if needed) and replays
    the journal.  The replayed records are folded into one net delta
    ({!Rdf.Delta.Net}: per triple the last operation wins) and applied to the snapshot
    with one {!Rdf.Graph.patch}, so the result equals record-by-record
    application — frozen when the snapshot is — at the cost of one
    patch, not one per record.  Raises {!Corrupt} on mid-segment damage and
    [Unix.Unix_error]/[Sys_error] on I/O failure.  On a [fresh] journal
    the caller typically {!snapshot}s its base graph immediately so
    later recoveries start from it. *)

val append : t -> Rdf.Delta.t -> int
(** Write one delta; returns its sequence number.  Subject to the
    [journal.append] fault site (before any byte is written) and
    [journal.fsync] (between write and fsync); on any failure the
    segment is rolled back to its pre-append length and the exception
    re-raised. *)

val sync : t -> unit
(** Force an fsync now, whatever the policy. *)

val snapshot : t -> Rdf.Graph.t -> unit
(** Write [graph] — which must include every applied record, i.e. the
    caller's current materialized graph — as the new snapshot, then
    truncate the segment. *)

val last_seq : t -> int

type stats = {
  records : int;  (** records in the current segment *)
  bytes : int;    (** segment length in bytes *)
  fsyncs : int;   (** fsyncs issued since {!recover} *)
}

val stats : t -> stats

val close : t -> unit
