(** The shape-fragment server: loads a graph and schema once, then
    answers {!Wire} requests over TCP until told to stop.

    Robustness model, in the order a request meets it:

    {ol
    {- {b Admission control.}  Accepted connections enter a bounded
       {!Bqueue}; when it is full the acceptor immediately answers
       [overloaded] and closes — explicit load-shedding, never an
       unbounded queue or a silent hang.  The acceptor never reads from
       connections, so a slow client cannot stall admission.}
    {- {b Per-request budgets.}  Each request runs under a
       {!Runtime.Budget} combining the server's caps
       ([request_timeout] / [request_fuel]) with the request's own
       [timeout] / [fuel] fields (the smaller bound wins), so one
       pathological request cannot starve the pool.}
    {- {b Fault isolation.}  Budget exhaustion is answered in-place as a
       structured [failed] reply ([timeout] / [fuel]).  Any other
       exception crashes the worker: {!Pool} sends the [failed] reply
       with reason [crash] (via {!Runtime.Outcome.reason_of_exn}),
       closes the connection, and replaces the domain.}
    {- {b Graceful shutdown.}  {!request_stop} (async-signal-safe) makes
       the acceptor stop accepting; {!shutdown} then closes the queue,
       waits for queued and in-flight requests to finish under the
       [drain_timeout] deadline, and joins the pool.  [`Forced] means
       the deadline passed with work still running; the caller should
       exit non-zero.}}

    Fault-injection sites (see {!Runtime.Fault}): [service.accept]
    (connection dropped at admission), [service.worker] (request crashes
    after parsing — exercises domain replacement and the [failed]-reply
    path), [service.reply] (crash after evaluation, before the reply is
    written). *)

type config = {
  host : string;                  (** bind address, default 127.0.0.1 *)
  port : int;                     (** 0 picks an ephemeral port *)
  port_file : string option;      (** write the bound port here, for scripts *)
  jobs : int;                     (** worker domains *)
  queue_bound : int;              (** admission-queue capacity *)
  request_timeout : float option; (** per-request wall-clock cap, seconds *)
  request_fuel : int option;      (** per-request evaluation-fuel cap *)
  drain_timeout : float;          (** graceful-shutdown drain deadline *)
  receive_timeout : float;
      (** bound on reading one request frame, seconds — both the socket
          receive timeout and an overall per-frame deadline, so neither
          a silent nor a byte-dripping (slow-loris) peer can park a
          worker *)
  snapshot_every : int;
      (** journalled servers only: snapshot the graph and truncate the
          log segment once it holds this many records *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, 4 workers, queue bound 64, 30 s request
    timeout, no fuel cap, 5 s drain deadline, 10 s receive timeout,
    snapshot every 1024 records. *)

type t

val start :
  ?namespaces:Rdf.Namespace.t ->
  ?shard:int ->
  ?restrict:(Rdf.Term.t -> bool) ->
  ?journal:Runtime.Journal.t ->
  config ->
  schema:Shacl.Schema.t ->
  graph:Rdf.Graph.t ->
  t
(** Bind, listen, spawn the worker pool and the acceptor domain, and
    return immediately.  Raises [Unix.Unix_error] when the address
    cannot be bound.  [namespaces] resolves prefixed names in request
    shapes and prefixes reply Turtle.

    [shard] and [restrict] turn the server into a cluster shard worker
    (see {!Shard}): [shard] is echoed on [ping] replies, and [restrict]
    limits which candidate nodes [validate] / [fragment] requests
    enumerate — the graph itself stays whole, so each restricted answer
    is exact over the nodes the shard owns.

    [journal] makes the server accept [update] requests against the
    (already recovered — see {!Runtime.Journal.recover}) write-ahead
    log: [graph] must be the recovered graph, each delta is appended
    and fsynced before its acknowledgment, and [validate] / schema
    [fragment] requests are answered from the incrementally maintained
    report and fragment.  Mutually exclusive with [shard] / [restrict]
    (raises [Invalid_argument]).  Startup pays one full evaluation to
    seed the incremental state. *)

val write_port_file : string -> int -> unit
(** Atomically publish a bound port at [path]: written to a temp file in
    the same directory, then renamed into place, so a polling reader
    never observes a torn or empty file. *)

val port : t -> int
(** The actually bound port (useful with [port = 0]). *)

val stats : t -> Wire.stats
(** A consistent-enough snapshot of the server counters. *)

val request_stop : t -> unit
(** Flag the server to stop accepting.  Only sets an atomic, so it is
    safe to call from a signal handler.  Idempotent. *)

val shutdown : t -> [ `Drained | `Forced ]
(** Complete a stop: implies {!request_stop}, joins the acceptor, closes
    the listening socket and the queue, then waits up to
    [drain_timeout] for queued and in-flight requests to be answered.
    [`Drained] when everything completed (the pool is joined and the
    port file removed); [`Forced] when the deadline passed first. *)
