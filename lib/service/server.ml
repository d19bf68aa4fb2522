(* The shape-fragment server: acceptor domain + bounded admission queue
   + worker pool, with per-request budgets, structured failure replies,
   and a drain-based graceful shutdown.  See server.mli for the model. *)

type config = {
  host : string;
  port : int;
  port_file : string option;
  jobs : int;
  queue_bound : int;
  request_timeout : float option;
  request_fuel : int option;
  drain_timeout : float;
  receive_timeout : float;
  snapshot_every : int;
}

let default_config =
  { host = "127.0.0.1";
    port = 0;
    port_file = None;
    jobs = 4;
    queue_bound = 64;
    request_timeout = Some 30.0;
    request_fuel = None;
    drain_timeout = 5.0;
    receive_timeout = 10.0;
    snapshot_every = 1024 }

type counters = {
  accepted : int Atomic.t;
  served : int Atomic.t;
  shed : int Atomic.t;
  failed : int Atomic.t;
  rejected : int Atomic.t;
  dropped : int Atomic.t;
  in_flight : int Atomic.t;
}

(* Mutable state of a journalled server.  Updates mutate [inc] (and
   through it the current graph) under [lock]; read paths take the lock
   only long enough to snapshot an immutable view — a frozen graph, a
   report — and evaluate outside it, so a long fragment request never
   blocks the update stream. *)
type live = {
  journal : Runtime.Journal.t;
  inc : Provenance.Incremental.t;
  lock : Mutex.t;
}

type t = {
  config : config;
  namespaces : Rdf.Namespace.t;
  schema : Shacl.Schema.t;
  graph : Rdf.Graph.t;  (* the graph at startup; live servers move on *)
  live : live option;
  shard : int option;
  restrict : (Rdf.Term.t -> bool) option;
  lsock : Unix.file_descr;
  bound_port : int;
  started : float;
  stop : bool Atomic.t;
  queue : Unix.file_descr Bqueue.t;
  (* set right after construction — the pool's handler closes over [t] *)
  mutable pool : Unix.file_descr Pool.t option;
  mutable acceptor : unit Domain.t option;
  counters : counters;
}

let port t = t.bound_port
let request_stop t = Atomic.set t.stop true

let safe_close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* The graph requests evaluate against: the startup graph, or — on a
   journalled server — the current one.  Frozen graphs are immutable
   values, so the snapshot taken under the lock stays valid outside. *)
let current_graph t =
  match t.live with
  | None -> t.graph
  | Some live -> locked live.lock (fun () -> Provenance.Incremental.graph live.inc)

(* A reply write to a peer that already hung up must not take the worker
   down with it — the connection is simply lost. *)
let try_reply t ?id fd reply =
  match Wire.write_line fd (Wire.encode_reply ?id reply) with
  | () -> true
  | exception (Unix.Unix_error _ | Sys_error _) ->
      Atomic.incr t.counters.dropped;
      false

let stats t : Wire.stats =
  { uptime = Unix.gettimeofday () -. t.started;
    jobs = t.config.jobs;
    queue_bound = Bqueue.capacity t.queue;
    accepted = Atomic.get t.counters.accepted;
    served = Atomic.get t.counters.served;
    shed = Atomic.get t.counters.shed;
    failed = Atomic.get t.counters.failed;
    rejected = Atomic.get t.counters.rejected;
    dropped = Atomic.get t.counters.dropped;
    crashes = (match t.pool with Some p -> Pool.crashes p | None -> 0);
    in_flight = Atomic.get t.counters.in_flight;
    queued = Bqueue.length t.queue;
    journal =
      (match t.live with
      | None -> None
      | Some live ->
          Some
            (locked live.lock (fun () ->
                 let js : Runtime.Journal.stats =
                   Runtime.Journal.stats live.journal
                 in
                 let is : Provenance.Incremental.stats =
                   Provenance.Incremental.stats live.inc
                 in
                 { Wire.j_records = js.records;
                   j_bytes = js.bytes;
                   j_fsyncs = js.fsyncs;
                   j_seq = Runtime.Journal.last_seq live.journal;
                   j_dirty = is.total_dirty;
                   j_rechecked = is.total_rechecked }))) }

(* ---------------- request evaluation -------------------------------- *)

(* The smaller of the server's cap and the request's own bound wins. *)
let budget_of t (req : Wire.request) =
  let min_opt a b =
    match a, b with
    | None, x | x, None -> x
    | Some a, Some b -> Some (min a b)
  in
  let timeout = min_opt t.config.request_timeout req.timeout in
  let fuel = min_opt t.config.request_fuel req.fuel in
  match timeout, fuel with
  | None, None -> Runtime.Budget.unlimited
  | _ -> Runtime.Budget.make ?timeout ?fuel ()

let parse_node namespaces src =
  if String.length src > 1 && src.[0] = '<' then
    Rdf.Term.iri (String.sub src 1 (String.length src - 2))
  else
    match Rdf.Namespace.expand namespaces src with
    | Some iri -> Rdf.Term.iri iri
    | None -> Rdf.Term.iri src

let turtle t g = Rdf.Turtle.to_string ~prefixes:t.namespaces g

(* Evaluate one parsed request under [budget].  Returns an [Error _]
   reply for malformed payloads; lets [Budget.Exhausted] (and real
   crashes) escape to the caller's isolation layer. *)
let validated (report : Shacl.Validate.report) =
  Wire.Validated
    { conforms = report.Shacl.Validate.conforms;
      checks = List.length report.Shacl.Validate.results;
      violations = List.length (Shacl.Validate.violations report) }

let execute t budget : Wire.op -> Wire.reply = function
  | Wire.Validate ->
      if Shacl.Schema.defs t.schema = [] then
        Wire.Error "no schema loaded (start the server with --shapes)"
      else begin
        match t.live with
        | Some live ->
            (* the report is maintained; no re-validation happens *)
            validated
              (locked live.lock (fun () ->
                   Provenance.Incremental.report live.inc))
        | None ->
            let report, _stats =
              Provenance.Engine.validate ?restrict:t.restrict ~jobs:1 ~budget
                t.schema t.graph
            in
            validated report
      end
  | Wire.Fragment shape_srcs -> (
      let parsed =
        List.fold_left
          (fun acc src ->
            match acc with
            | Result.Error _ as e -> e
            | Ok shapes -> (
                match Shacl.Shape_syntax.parse ~namespaces:t.namespaces src with
                | Ok shape ->
                    Ok
                      (Provenance.Engine.request
                         ~label:
                           (Shacl.Shape_syntax.print ~namespaces:t.namespaces
                              shape)
                         shape
                      :: shapes)
                | Result.Error e ->
                    Result.Error
                      (Format.asprintf "shape %S: %a" src
                         Shacl.Shape_syntax.pp_error e)))
          (Ok []) shape_srcs
      in
      match parsed with
      | Result.Error msg -> Wire.Error msg
      | Ok [] when Shacl.Schema.defs t.schema = [] ->
          Wire.Error "no request shapes given and no schema loaded"
      | Ok [] when t.live <> None ->
          (* the schema fragment is maintained; serve it as-is *)
          let live = Option.get t.live in
          let fragment =
            locked live.lock (fun () -> Provenance.Incremental.fragment live.inc)
          in
          Wire.Fragmented
            { triples = Rdf.Graph.cardinal fragment;
              turtle = turtle t fragment }
      | Ok requests ->
          let requests =
            match requests with
            | [] -> Provenance.Engine.requests_of_schema t.schema
            | l -> List.rev l
          in
          let fragment, _stats =
            Provenance.Engine.run ?restrict:t.restrict ~schema:t.schema ~jobs:1
              ~budget (current_graph t) requests
          in
          Wire.Fragmented
            { triples = Rdf.Graph.cardinal fragment;
              turtle = turtle t fragment })
  | Wire.Neighborhood { node; shape } -> (
      match Shacl.Shape_syntax.parse ~namespaces:t.namespaces shape with
      | Result.Error e ->
          Wire.Error
            (Format.asprintf "shape %S: %a" shape Shacl.Shape_syntax.pp_error e)
      | Ok shape -> (
          let v = parse_node t.namespaces node in
          let g = current_graph t in
          match
            Provenance.Neighborhood.check ~budget ~schema:t.schema g v shape
          with
          | true, neighborhood ->
              Wire.Neighborhoods
                { conforms = true; turtle = turtle t neighborhood }
          | false, _ ->
              (* why-not provenance (Remark 3.7): B(v, ¬shape), computed
                 under the same budget. *)
              let _, explanation =
                Provenance.Neighborhood.check ~budget ~schema:t.schema g v
                  (Shacl.Shape.Not shape)
              in
              Wire.Neighborhoods
                { conforms = false; turtle = turtle t explanation }))
  | Wire.Update { add; remove } -> (
      match t.live with
      | None ->
          Wire.Error
            "server has no journal (start it with --journal to accept updates)"
      | Some live -> (
          let parse what src =
            if src = "" then Ok []
            else
              match Rdf.Turtle.parse src with
              | Ok g -> Ok (Rdf.Graph.to_list g)
              | Result.Error e ->
                  Result.Error
                    (Format.asprintf "update %s section: %a" what
                       Rdf.Turtle.pp_error e)
          in
          match parse "add" add, parse "remove" remove with
          | Result.Error msg, _ | _, Result.Error msg -> Wire.Error msg
          | Ok adds, Ok removes ->
              let delta = Rdf.Delta.make ~removes ~adds () in
              locked live.lock (fun () ->
                  (* Write-ahead: the record is durable before the state
                     moves or the ack is sent.  An append or fsync
                     failure rolls the segment back and escapes as a
                     crash reply — nothing was acknowledged, nothing is
                     persisted. *)
                  let seq = Runtime.Journal.append live.journal delta in
                  let st : Provenance.Incremental.update_stats =
                    Provenance.Incremental.apply live.inc delta
                  in
                  let js : Runtime.Journal.stats =
                    Runtime.Journal.stats live.journal
                  in
                  if js.records >= t.config.snapshot_every then
                    Runtime.Journal.snapshot live.journal
                      (Provenance.Incremental.graph live.inc);
                  let report = Provenance.Incremental.report live.inc in
                  Wire.Updated
                    { seq;
                      added = st.added;
                      removed = st.removed;
                      dirty = st.dirty;
                      rechecked = st.rechecked;
                      conforms = report.Shacl.Validate.conforms })))
  | Wire.Health -> Wire.Healthy { uptime = Unix.gettimeofday () -. t.started }
  | Wire.Stats -> Wire.Statistics (stats t)
  | Wire.Ping -> Wire.Pong { shard = t.shard }
  | Wire.Sleep ms ->
      (* diagnostic: bounded so a stray request cannot park a worker
         beyond any plausible drain deadline *)
      let ms = min ms 60_000 in
      Unix.sleepf (float_of_int ms /. 1000.0);
      Wire.Slept ms

(* ---------------- worker ------------------------------------------- *)

(* Normal path: read one frame, parse, evaluate under the budget, reply,
   close.  Expected failures (unreadable frame, malformed request,
   budget exhaustion) are answered here and the worker survives; any
   other exception escapes to [on_crash], which answers [failed: crash]
   and lets the pool replace the domain. *)
let handle t fd =
  Atomic.incr t.counters.in_flight;
  (* Counters are bumped *before* the reply is written, so a client that
     has seen a reply is guaranteed to see it reflected in [stats]. *)
  let finish ?id counter reply =
    Atomic.incr counter;
    ignore (try_reply t ?id fd reply : bool);
    safe_close fd;
    Atomic.decr t.counters.in_flight
  in
  (* Reading the frame is bounded twice: the socket receive timeout
     catches a peer that goes silent, and the overall deadline catches a
     slow-loris peer that drips bytes to keep resetting it.  Either way
     the worker is released instead of parked. *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO t.config.receive_timeout
   with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. t.config.receive_timeout in
  match Wire.read_line ~deadline fd with
  | None | (exception Unix.Unix_error _) | (exception Failure _) ->
      Atomic.incr t.counters.dropped;
      safe_close fd;
      Atomic.decr t.counters.in_flight
  | Some line -> (
      match Wire.decode_request line with
      | Result.Error msg -> finish t.counters.rejected (Wire.Error msg)
      | Ok req -> (
          match
            Runtime.Fault.probe "service.worker";
            execute t (budget_of t req) req.op
          with
          | Wire.Error _ as reply ->
              finish ?id:req.id t.counters.rejected reply
          | reply ->
              Runtime.Fault.probe "service.reply";
              Atomic.incr t.counters.served;
              if not (try_reply t ?id:req.id fd reply) then begin
                (* the peer vanished before the reply landed *)
                Atomic.decr t.counters.served;
                Atomic.incr t.counters.dropped
              end;
              safe_close fd;
              Atomic.decr t.counters.in_flight
          | exception Runtime.Budget.Exhausted reason ->
              let reason, detail =
                Wire.failure_of_outcome
                  (Runtime.Outcome.reason_of_exn
                     (Runtime.Budget.Exhausted reason))
              in
              finish ?id:req.id t.counters.failed
                (Wire.Failed { reason; detail })))

(* Crash path: the request was parsed (or not) but evaluation blew up in
   a way [handle] does not expect.  Send the structured reply, release
   the connection, and let the pool replace the domain. *)
let on_crash t fd exn =
  let reason, detail =
    Wire.failure_of_outcome (Runtime.Outcome.reason_of_exn exn)
  in
  Atomic.incr t.counters.failed;
  ignore (try_reply t fd (Wire.Failed { reason; detail }));
  safe_close fd;
  Atomic.decr t.counters.in_flight

(* ---------------- acceptor ------------------------------------------ *)

(* The acceptor never reads from connections: it accepts, runs admission
   control, and hands the socket to the pool.  The 100 ms select tick
   bounds how long a stop request waits. *)
let rec accept_loop t =
  if Atomic.get t.stop then ()
  else begin
    (match Unix.select [ t.lsock ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.lsock with
        | exception
            Unix.Unix_error
              ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | fd, _ -> (
            Atomic.incr t.counters.accepted;
            match Runtime.Fault.probe "service.accept" with
            | exception Runtime.Fault.Injected _ ->
                (* an accept-path fault drops the connection before
                   admission — the client sees a reset, not a hang *)
                Atomic.incr t.counters.dropped;
                safe_close fd
            | () -> (
                match Bqueue.try_push t.queue fd with
                | `Queued -> ()
                | `Shed | `Closed ->
                    Atomic.incr t.counters.shed;
                    ignore
                      (try_reply t fd
                         (Wire.Overloaded { queued = Bqueue.length t.queue }));
                    safe_close fd)))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    accept_loop t
  end

(* ---------------- lifecycle ----------------------------------------- *)

(* Temp file in the target's own directory plus [rename]: a reader
   polling the path either sees nothing or a complete "port\n" line,
   never a torn write (rename is atomic within a filesystem; a temp file
   elsewhere could cross filesystems and lose that). *)
let write_port_file path port =
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  in
  (try
     let oc = open_out tmp in
     (try Printf.fprintf oc "%d\n" port
      with e -> close_out_noerr oc; raise e);
     close_out oc
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let start ?(namespaces = Rdf.Namespace.default) ?shard ?restrict ?journal
    config ~schema ~graph =
  if journal <> None && (shard <> None || restrict <> None) then
    invalid_arg "Server.start: a journalled server cannot be a shard worker";
  (* Freeze once at load: every request evaluates against the same
     interned store instead of each engine run freezing its own copy. *)
  let graph = Rdf.Graph.freeze graph in
  (* Initial full evaluation of the incremental engine — the one
     from-scratch run; every later update pays only for its dirty set. *)
  let live =
    Option.map
      (fun journal ->
        { journal;
          inc = Provenance.Incremental.create ~schema graph;
          lock = Mutex.create () })
      journal
  in
  (* A peer hanging up mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let lsock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt lsock Unix.SO_REUSEADDR true;
      Unix.bind lsock
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen lsock 128;
      let bound_port =
        match Unix.getsockname lsock with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> config.port
      in
      let queue = Bqueue.create ~capacity:config.queue_bound in
      let counters =
        { accepted = Atomic.make 0;
          served = Atomic.make 0;
          shed = Atomic.make 0;
          failed = Atomic.make 0;
          rejected = Atomic.make 0;
          dropped = Atomic.make 0;
          in_flight = Atomic.make 0 }
      in
      let t =
        { config; namespaces; schema; graph; live; shard; restrict; lsock;
          bound_port;
          started = Unix.gettimeofday ();
          stop = Atomic.make false;
          queue;
          pool = None;
          acceptor = None;
          counters }
      in
      t.pool <-
        Some
          (Pool.start ~jobs:config.jobs
             ~handler:(fun fd -> handle t fd)
             ~on_crash:(fun fd e -> on_crash t fd e)
             queue);
      t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t));
      Option.iter (fun path -> write_port_file path bound_port)
        config.port_file;
      t
    with e ->
      safe_close lsock;
      raise e
  in
  t

let shutdown t =
  request_stop t;
  Option.iter Domain.join t.acceptor;
  t.acceptor <- None;
  safe_close t.lsock;
  Bqueue.close t.queue;
  let deadline = Unix.gettimeofday () +. t.config.drain_timeout in
  let rec drain () =
    if Bqueue.length t.queue = 0 && Atomic.get t.counters.in_flight = 0 then
      `Drained
    else if Unix.gettimeofday () > deadline then `Forced
    else begin
      Unix.sleepf 0.01;
      drain ()
    end
  in
  match drain () with
  | `Drained ->
      (* queue closed and empty: workers retire promptly *)
      Option.iter Pool.join t.pool;
      Option.iter
        (fun live ->
          locked live.lock (fun () ->
              Runtime.Journal.sync live.journal;
              Runtime.Journal.close live.journal))
        t.live;
      Option.iter
        (fun path -> try Sys.remove path with Sys_error _ -> ())
        t.config.port_file;
      `Drained
  | `Forced -> `Forced
