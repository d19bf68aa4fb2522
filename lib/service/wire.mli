(** Wire protocol of the shape-fragment service.

    One request per TCP connection: the client sends a single
    line-delimited JSON object, the server answers with a single JSON
    line and closes.  Line framing keeps the protocol inspectable with
    [nc]/[socat] and trivially total to parse: a frame is whatever
    arrived before the first newline, and anything that is not a JSON
    object of the expected form is answered with a structured [error]
    reply instead of being interpreted.

    Requests:
    {v
    {"op":"validate"}
    {"op":"fragment","shapes":[">=1 ex:author . >=1 rdf:type . hasValue(ex:Student)"]}
    {"op":"neighborhood","node":"ex:p1","shape":">=1 ex:author . top"}
    {"op":"health"}   {"op":"stats"}   {"op":"sleep","ms":250}
    v}
    plus optional ["id"] (echoed on replies), ["timeout"] (seconds) and
    ["fuel"] — per-request resource bounds, clamped by the server's own
    caps.  [sleep] is a diagnostic op that holds a worker busy; load
    tests use it to saturate the queue deterministically.

    Replies carry a ["status"] discriminator: ["ok"] with op-specific
    payload, ["overloaded"] (the admission queue was full — the request
    was never started), ["failed"] (the request started but its worker
    crashed or exhausted its budget; ["reason"] is one of
    ["timeout"]/["fuel"]/["crash"]) or ["error"] (the request itself was
    malformed; never worth retrying). *)

(** Minimal JSON values — just enough for the line protocol; numbers are
    floats, objects are association lists in emission order. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Single-line rendering: control characters (including newlines) in
      strings are escaped, so the result never contains a raw ['\n']. *)

  val of_string : string -> (t, string) result
  (** Total on arbitrary input. *)
end

type op =
  | Validate  (** validate the preloaded graph against the preloaded schema *)
  | Fragment of string list
      (** shape fragment of the given request shapes (library text
          syntax), or of the preloaded schema when the list is empty *)
  | Neighborhood of { node : string; shape : string }
      (** provenance of one node: neighborhood, or why-not explanation *)
  | Update of { add : string; remove : string }
      (** apply a graph delta, each side a Turtle document (either may
          be empty, not both).  Only honored by servers started with a
          journal: the delta is appended and fsynced to the write-ahead
          log {e before} the {!Updated} acknowledgment is sent, then
          folded into the live graph by incremental revalidation. *)
  | Health  (** liveness probe: answers {!Healthy} with the uptime *)
  | Stats
  | Sleep of int  (** diagnostic: hold a worker for [ms] milliseconds *)

type request = {
  id : string option;
  op : op;
  timeout : float option;  (** per-request wall-clock bound, seconds *)
  fuel : int option;       (** per-request evaluation-fuel bound *)
}

val request : ?id:string -> ?timeout:float -> ?fuel:int -> op -> request

type failure = Timeout | Fuel | Crash

val failure_of_outcome : Runtime.Outcome.reason -> failure * string
(** The wire rendering of an {!Runtime.Outcome.reason}: the failure
    class plus a human-readable detail string. *)

(** Journal counters, present in {!stats} when the server runs with a
    write-ahead log.  [j_records]/[j_bytes] describe the current log
    segment (both reset by a snapshot); [j_dirty]/[j_rechecked] are the
    cumulative incremental-revalidation totals. *)
type jstats = {
  j_records : int;
  j_bytes : int;
  j_fsyncs : int;
  j_seq : int;       (** highest sequence number written *)
  j_dirty : int;     (** stored pairs invalidated, summed over updates *)
  j_rechecked : int; (** pair evaluations performed, summed over updates *)
}

(** Server statistics, as reported by the [stats] op.  Counters are
    cumulative since startup; [in_flight] and [queued] are gauges. *)
type stats = {
  uptime : float;
  jobs : int;
  queue_bound : int;
  accepted : int;  (** connections accepted from the listener *)
  served : int;    (** requests answered with an [ok] reply *)
  shed : int;      (** connections refused by admission control *)
  failed : int;    (** requests answered with a [failed] reply *)
  rejected : int;  (** malformed requests answered with [error] *)
  dropped : int;   (** connections lost before a reply could be sent *)
  crashes : int;   (** worker domains replaced after a crash *)
  in_flight : int;
  queued : int;
  journal : jstats option;  (** [None] on servers without a journal *)
}

type reply =
  | Validated of { conforms : bool; checks : int; violations : int }
  | Fragmented of { triples : int; turtle : string }
  | Neighborhoods of { conforms : bool; turtle : string }
      (** [turtle] is the neighborhood when [conforms], the why-not
          explanation otherwise *)
  | Updated of {
      seq : int;        (** journal sequence number — durable on receipt *)
      added : int;      (** triples actually added (no-ops dropped) *)
      removed : int;    (** triples actually removed *)
      dirty : int;      (** stored pairs invalidated by the delta *)
      rechecked : int;  (** pair evaluations the update cost *)
      conforms : bool;  (** overall verdict after the update *)
    }
  | Healthy of { uptime : float }
  | Statistics of stats
  | Slept of int
  | Overloaded of { queued : int }
  | Failed of { reason : failure; detail : string }
  | Error of string

val encode_request : request -> string
val decode_request : string -> (request, string) result
val encode_reply : ?id:string -> reply -> string
val decode_reply : string -> (string option * reply, string) result
(** Replies decode together with the echoed request id, when present. *)

(** {2 Line-framed socket I/O} *)

val write_line : Unix.file_descr -> string -> unit
(** Append ['\n'] and write fully; raises [Unix.Unix_error] on a closed
    or timed-out peer. *)

val read_line : ?max:int -> ?deadline:float -> Unix.file_descr -> string option
(** Read up to the first ['\n'] (discarded) or EOF; [None] on an empty
    stream.  [max] (default 16 MiB) bounds the frame; a longer frame
    raises [Failure].  Honors socket receive timeouts by letting
    [Unix.Unix_error] escape.  [deadline] (absolute, from
    [Unix.gettimeofday]) bounds the {e whole} frame — a peer can evade a
    per-read receive timeout by dripping one byte at a time, but not
    the deadline; crossing it raises [Unix.Unix_error (ETIMEDOUT, _, _)],
    which clients classify as a retryable transport failure. *)
