(* The fault-tolerant shape-fragment service (lib/service).

   - Wire: JSON codec total on arbitrary bytes, request/reply roundtrips.
   - Bqueue: bounded admission with explicit shedding and drain-on-close.
   - Pool: crashed workers are replaced and the queue keeps draining.
   - Server.write_port_file: atomic publication.
   - End-to-end (in-process server on an ephemeral port): every op over
     a real socket, per-request budgets, load shedding, worker-fault
     isolation with client retry, graceful drain, and the determinism
     guard — a fragment answered over the wire is byte-identical (after
     sorting) to the engine's local answer, preserving Theorem 4.1
     conformance across the service boundary. *)

open Service

(* ---------------- Wire.Json ------------------------------------------ *)

let roundtrip_json v =
  match Wire.Json.of_string (Wire.Json.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_json_roundtrip () =
  let open Wire.Json in
  List.iter
    (fun v -> Alcotest.(check bool) (to_string v) true (roundtrip_json v))
    [ Null;
      Bool true;
      Num 0.0;
      Num (-12.5);
      Num 1e9;
      Str "";
      Str "plain";
      Str "esc \" \\ \n \r \t \b \012 quotes";
      Str "unicode: caf\xc3\xa9 \xe2\x82\xac";
      Arr [];
      Arr [ Num 1.0; Str "two"; Bool false; Null ];
      Obj [];
      Obj [ "a", Num 1.0; "nested", Obj [ "b", Arr [ Str "x" ] ] ] ]

let test_json_single_line () =
  let s =
    Wire.Json.to_string (Wire.Json.Obj [ "text", Wire.Json.Str "a\nb\r\nc" ])
  in
  Alcotest.(check bool) "no raw newline" false (String.contains s '\n')

let test_json_escapes () =
  let check input expected =
    match Wire.Json.of_string input with
    | Ok (Wire.Json.Str s) -> Alcotest.(check string) input expected s
    | _ -> Alcotest.failf "%s did not parse as a string" input
  in
  check {|"\u0041\u00e9"|} "A\xc3\xa9";
  check {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80" (* surrogate pair *);
  check {|"a\/b"|} "a/b"

let test_json_total_on_garbage () =
  List.iter
    (fun s ->
      match Wire.Json.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "{"; "nul"; "{\"a\":}"; "[1,]"; "\"unterminated"; "\"bad \\q\"";
      "\"\\ud800\""; "123abc"; "{} trailing"; "\xff\xfe" ]

(* ---------------- Wire request/reply codecs -------------------------- *)

let roundtrip_request r =
  match Wire.decode_request (Wire.encode_request r) with
  | Ok r' -> r' = r
  | Error _ -> false

let test_request_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (Wire.encode_request r) true (roundtrip_request r))
    [ Wire.request Wire.Validate;
      Wire.request ~id:"42" ~timeout:1.5 ~fuel:100 Wire.Validate;
      Wire.request (Wire.Fragment []);
      Wire.request (Wire.Fragment [ ">=1 ex:author . top"; "top" ]);
      Wire.request
        (Wire.Neighborhood { node = "ex:p1"; shape = ">=1 ex:author . top" });
      Wire.request (Wire.Update { add = "ex:a ex:p ex:b .\n"; remove = "" });
      Wire.request
        (Wire.Update
           { add = "@prefix ex: <http://example.org/> .\nex:a ex:p 1 .\n";
             remove = "ex:a ex:q ex:c .\n" });
      Wire.request Wire.Health;
      Wire.request Wire.Stats;
      Wire.request (Wire.Sleep 250) ]

let test_request_decode_errors () =
  List.iter
    (fun line ->
      match Wire.decode_request line with
      | Ok _ -> Alcotest.failf "%S should be rejected" line
      | Error _ -> ())
    [ "not json"; "[]"; "{}"; {|{"op":"frag"}|};
      {|{"op":"neighborhood","node":"x"}|}; {|{"op":"update"}|};
      {|{"op":"sleep","ms":-1}|};
      {|{"op":"validate","fuel":"ten"}|}; {|{"op":"validate","fuel":1.5}|} ]

let sample_stats : Wire.stats =
  { uptime = 1.5; jobs = 4; queue_bound = 64; accepted = 10; served = 6;
    shed = 1; failed = 2; rejected = 1; dropped = 0; crashes = 2;
    in_flight = 0; queued = 0; journal = None }

let sample_jstats : Wire.jstats =
  { j_records = 5; j_bytes = 640; j_fsyncs = 5; j_seq = 12; j_dirty = 9;
    j_rechecked = 11 }

let roundtrip_reply ?id r =
  match Wire.decode_reply (Wire.encode_reply ?id r) with
  | Ok (id', r') -> id' = id && r' = r
  | Error _ -> false

let test_reply_roundtrip () =
  List.iter
    (fun r ->
      Alcotest.(check bool) (Wire.encode_reply r) true (roundtrip_reply r);
      Alcotest.(check bool) "with id" true (roundtrip_reply ~id:"7" r))
    [ Wire.Validated { conforms = false; checks = 3; violations = 1 };
      Wire.Fragmented { triples = 2; turtle = "a b c .\nd e f .\n" };
      Wire.Neighborhoods { conforms = true; turtle = "" };
      Wire.Updated
        { seq = 17; added = 2; removed = 1; dirty = 3; rechecked = 4;
          conforms = true };
      Wire.Healthy { uptime = 0.25 };
      Wire.Statistics sample_stats;
      Wire.Statistics { sample_stats with journal = Some sample_jstats };
      Wire.Slept 100;
      Wire.Overloaded { queued = 8 };
      Wire.Failed { reason = Wire.Crash; detail = "injected fault at x" };
      Wire.Failed { reason = Wire.Timeout; detail = "deadline" };
      Wire.Error "unknown op \"frag\"" ]

(* ---------------- Bqueue --------------------------------------------- *)

let test_bqueue_bounded_shed () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1 = `Queued);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2 = `Queued);
  Alcotest.(check bool) "push 3 shed" true (Bqueue.try_push q 3 = `Shed);
  Alcotest.(check int) "depth" 2 (Bqueue.length q);
  Alcotest.(check bool) "pop 1" true (Bqueue.pop q = Some 1);
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 4 = `Queued)

let test_bqueue_close_drains () =
  let q = Bqueue.create ~capacity:4 in
  ignore (Bqueue.try_push q "a");
  ignore (Bqueue.try_push q "b");
  Bqueue.close q;
  Alcotest.(check bool) "closed to producers" true
    (Bqueue.try_push q "c" = `Closed);
  Alcotest.(check bool) "drains a" true (Bqueue.pop q = Some "a");
  Alcotest.(check bool) "drains b" true (Bqueue.pop q = Some "b");
  Alcotest.(check bool) "then None" true (Bqueue.pop q = None)

let test_bqueue_close_wakes_blocked_consumers () =
  let q : int Bqueue.t = Bqueue.create ~capacity:1 in
  let consumers =
    List.init 3 (fun _ -> Domain.spawn (fun () -> Bqueue.pop q))
  in
  Unix.sleepf 0.05;
  Bqueue.close q;
  List.iter
    (fun d -> Alcotest.(check bool) "woken with None" true (Domain.join d = None))
    consumers

let test_bqueue_push_blocks_until_pop () =
  let q : int Bqueue.t = Bqueue.create ~capacity:1 in
  Alcotest.(check bool) "fills" true (Bqueue.try_push q 1 = `Queued);
  let producer = Domain.spawn (fun () -> Bqueue.push q 2) in
  (* the producer is parked on the full queue; popping frees a slot *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "pop head" true (Bqueue.pop q = Some 1);
  Alcotest.(check bool) "producer queued" true (Domain.join producer = `Queued);
  Alcotest.(check bool) "pushed value arrives" true (Bqueue.pop q = Some 2)

let test_bqueue_close_wakes_blocked_producer () =
  let q : int Bqueue.t = Bqueue.create ~capacity:1 in
  ignore (Bqueue.try_push q 1 : [ `Queued | `Shed | `Closed ]);
  let producers =
    List.init 3 (fun i -> Domain.spawn (fun () -> Bqueue.push q (i + 2)))
  in
  Unix.sleepf 0.05;
  Bqueue.close q;
  List.iter
    (fun d ->
      Alcotest.(check bool) "woken with `Closed" true (Domain.join d = `Closed))
    producers;
  (* close still drains what was queued before it *)
  Alcotest.(check bool) "drains head" true (Bqueue.pop q = Some 1);
  Alcotest.(check bool) "then None" true (Bqueue.pop q = None)

let test_bqueue_capacity_clamped () =
  let q = Bqueue.create ~capacity:0 in
  Alcotest.(check int) "capacity >= 1" 1 (Bqueue.capacity q);
  Alcotest.(check bool) "can hold one" true (Bqueue.try_push q () = `Queued)

(* ---------------- Pool ----------------------------------------------- *)

let test_pool_processes_all () =
  let q = Bqueue.create ~capacity:100 in
  let processed = Atomic.make 0 in
  let pool =
    Pool.start ~jobs:3
      ~handler:(fun _ -> Atomic.incr processed)
      ~on_crash:(fun _ _ -> ())
      q
  in
  for i = 1 to 50 do
    Alcotest.(check bool) "queued" true (Bqueue.try_push q i = `Queued)
  done;
  Bqueue.close q;
  Pool.join pool;
  Alcotest.(check int) "all processed" 50 (Atomic.get processed);
  Alcotest.(check int) "no crashes" 0 (Pool.crashes pool)

let test_pool_replaces_crashed_workers () =
  let q = Bqueue.create ~capacity:100 in
  let ok = Atomic.make 0 in
  let crashed = Atomic.make 0 in
  let pool =
    Pool.start ~jobs:2
      ~handler:(fun i -> if i mod 10 = 0 then failwith "boom" else Atomic.incr ok)
      ~on_crash:(fun _ e ->
        match Runtime.Outcome.reason_of_exn e with
        | Runtime.Outcome.Crashed _ -> Atomic.incr crashed
        | _ -> ())
      q
  in
  for i = 1 to 50 do
    ignore (Bqueue.try_push q i)
  done;
  Bqueue.close q;
  Pool.join pool;
  (* every job was either handled or crash-reported; the pool survived
     5 crashes by replacing each crashed domain *)
  Alcotest.(check int) "healthy jobs" 45 (Atomic.get ok);
  Alcotest.(check int) "crash callbacks" 5 (Atomic.get crashed);
  Alcotest.(check int) "domains replaced" 5 (Pool.crashes pool)

(* ---------------- end-to-end over a real socket ---------------------- *)

let data_ttl =
  {|@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:p1 rdf:type ex:Paper ; ex:author ex:bob .
ex:bob rdf:type ex:Student .
ex:p2 rdf:type ex:Paper ; ex:author ex:carl .
ex:carl rdf:type ex:Prof .|}

let shapes_ttl =
  {|@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
ex:WorkshopShape a sh:NodeShape ;
  sh:targetClass ex:Paper ;
  sh:property [ sh:path ex:author ; sh:qualifiedMinCount 1 ;
                sh:qualifiedValueShape [ sh:class ex:Student ] ] .|}

let graph = Rdf.Turtle.parse_exn data_ttl

let schema =
  match Shacl.Shapes_graph.load (Rdf.Turtle.parse_exn shapes_ttl) with
  | Ok schema -> schema
  | Error _ -> assert false

let with_server ?(config = Server.default_config) f =
  let server = Server.start config ~schema ~graph in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      ignore (Server.shutdown server))
    (fun () -> f server)

(* no-backoff policy: tests should not sleep *)
let fast_policy = Runtime.Retry.policy ~max_attempts:3 ~base_delay:0.0 ()

let call ?policy server op =
  Client.call
    ~policy:(Option.value policy ~default:fast_policy)
    ~host:"127.0.0.1" ~port:(Server.port server) (Wire.request op)

let expect_ok what = function
  | Ok reply -> reply
  | Error e -> Alcotest.failf "%s: %a" what Client.pp_error e

let test_e2e_ops () =
  with_server (fun server ->
      (match expect_ok "health" (call server Wire.Health) with
      | Wire.Healthy { uptime } ->
          Alcotest.(check bool) "uptime >= 0" true (uptime >= 0.0)
      | _ -> Alcotest.fail "expected Healthy");
      (match expect_ok "validate" (call server Wire.Validate) with
      | Wire.Validated { conforms; checks; violations } ->
          Alcotest.(check bool) "does not conform" false conforms;
          Alcotest.(check int) "checks" 2 checks;
          Alcotest.(check int) "violations" 1 violations
      | _ -> Alcotest.fail "expected Validated");
      (match
         expect_ok "neighborhood"
           (call server
              (Wire.Neighborhood
                 { node = "ex:p1";
                   shape = ">=1 ex:author . >=1 rdf:type . hasValue(ex:Student)" }))
       with
      | Wire.Neighborhoods { conforms; turtle } ->
          Alcotest.(check bool) "conforms" true conforms;
          Alcotest.(check bool) "neighborhood non-empty" false (turtle = "")
      | _ -> Alcotest.fail "expected Neighborhoods");
      (match
         expect_ok "why-not"
           (call server
              (Wire.Neighborhood
                 { node = "ex:p2";
                   shape = ">=1 ex:author . >=1 rdf:type . hasValue(ex:Student)" }))
       with
      | Wire.Neighborhoods { conforms; turtle } ->
          Alcotest.(check bool) "does not conform" false conforms;
          Alcotest.(check bool) "explanation non-empty" false (turtle = "")
      | _ -> Alcotest.fail "expected Neighborhoods");
      match call server (Wire.Fragment [ "nonsense(" ]) with
      | Error (Client.Remote_error _) -> ()
      | _ -> Alcotest.fail "bad shape should be a Remote_error")

(* Determinism guard (Theorem 4.1 across the wire): the fragment
   answered by the service equals the engine's local answer — the same
   serialized bytes once lines are sorted. *)
let sorted_lines s =
  List.sort String.compare (String.split_on_char '\n' (String.trim s))

let test_e2e_fragment_determinism () =
  with_server (fun server ->
      match expect_ok "fragment" (call server (Wire.Fragment [])) with
      | Wire.Fragmented { triples; turtle } ->
          let local, _ =
            Provenance.Engine.run ~schema ~jobs:2 graph
              (Provenance.Engine.requests_of_schema schema)
          in
          Alcotest.(check int) "cardinality" (Rdf.Graph.cardinal local) triples;
          Alcotest.(check (list string))
            "service fragment ≡ local fragment (sorted bytes)"
            (sorted_lines (Rdf.Turtle.to_string ~prefixes:Rdf.Namespace.default local))
            (sorted_lines turtle)
      | _ -> Alcotest.fail "expected Fragmented")

let test_e2e_budget_failed_reply () =
  with_server (fun server ->
      let result =
        Client.call ~policy:fast_policy ~host:"127.0.0.1"
          ~port:(Server.port server)
          (Wire.request ~fuel:1 (Wire.Fragment []))
      in
      (match result with
      | Error (Client.Failed (Wire.Fuel, _)) -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Failed Fuel");
      (* a budget failure is deterministic: the server saw exactly one
         request for it *)
      match expect_ok "stats" (call server Wire.Stats) with
      | Wire.Statistics s ->
          Alcotest.(check int) "one failed request" 1 s.Wire.failed
      | _ -> Alcotest.fail "expected Statistics")

let test_e2e_shed_and_drain () =
  let config =
    { Server.default_config with jobs = 1; queue_bound = 1; drain_timeout = 10.0 }
  in
  let server = Server.start config ~schema ~graph in
  let port = Server.port server in
  let sleeper () =
    Client.round_trip ~host:"127.0.0.1" ~port (Wire.request (Wire.Sleep 600))
  in
  (* saturate: one request on the worker, one in the queue *)
  let d1 = Domain.spawn sleeper in
  Unix.sleepf 0.15;
  let d2 = Domain.spawn sleeper in
  Unix.sleepf 0.15;
  (* the healthy probe is shed with a structured reply, not a hang *)
  (match
     Client.call
       ~policy:(Runtime.Retry.policy ~max_attempts:1 ())
       ~host:"127.0.0.1" ~port (Wire.request Wire.Health)
   with
  | Error (Client.Overloaded _) -> ()
  | Ok _ -> Alcotest.fail "expected shed, got a reply"
  | Error e -> Alcotest.failf "expected Overloaded, got %a" Client.pp_error e);
  (* graceful shutdown drains both in-flight sleeps *)
  Server.request_stop server;
  let verdict = Server.shutdown server in
  Alcotest.(check bool) "drained" true (verdict = `Drained);
  (match Domain.join d1, Domain.join d2 with
  | Ok (Wire.Slept _), Ok (Wire.Slept _) -> ()
  | _ -> Alcotest.fail "queued work must be answered during drain");
  let s = Server.stats server in
  Alcotest.(check int) "shed count" 1 s.Wire.shed;
  Alcotest.(check int) "served count" 2 s.Wire.served;
  Alcotest.(check int) "nothing in flight" 0 s.Wire.in_flight;
  (* every accepted connection is accounted for exactly once *)
  Alcotest.(check int) "accounting identity" s.Wire.accepted
    (s.Wire.served + s.Wire.shed + s.Wire.failed + s.Wire.rejected
   + s.Wire.dropped);
  (* the listener is really gone *)
  match Client.round_trip ~host:"127.0.0.1" ~port (Wire.request Wire.Health) with
  | Error (Client.Connect _) -> ()
  | _ -> Alcotest.fail "server should refuse connections after shutdown"

let test_e2e_worker_fault_isolation () =
  (* the 1st request crashes its worker; the domain is replaced and the
     client's retry succeeds against the fresh worker *)
  Runtime.Fault.configure ~at:1 "service.worker";
  Fun.protect ~finally:Runtime.Fault.disable (fun () ->
      let config = { Server.default_config with jobs = 1 } in
      with_server ~config (fun server ->
          (match call server Wire.Health with
          | Ok (Wire.Healthy _) -> ()
          | Ok _ -> Alcotest.fail "expected Healthy"
          | Error e ->
              Alcotest.failf "retry should recover: %a" Client.pp_error e);
          match expect_ok "stats" (call server Wire.Stats) with
          | Wire.Statistics s ->
              Alcotest.(check int) "one failed reply" 1 s.Wire.failed;
              Alcotest.(check int) "one crash, domain replaced" 1 s.Wire.crashes;
              Alcotest.(check bool) "kept serving" true (s.Wire.served >= 1)
          | _ -> Alcotest.fail "expected Statistics"))

let test_e2e_persistent_fault_not_fatal () =
  (* a fault at every worker probe: every request fails structurally,
     but the server never dies and still sheds/serves/accounts *)
  Runtime.Fault.configure "service.worker";
  Fun.protect ~finally:Runtime.Fault.disable (fun () ->
      let config = { Server.default_config with jobs = 2 } in
      with_server ~config (fun server ->
          (match
             Client.call
               ~policy:(Runtime.Retry.policy ~max_attempts:2 ~base_delay:0.0 ())
               ~host:"127.0.0.1" ~port:(Server.port server)
               (Wire.request Wire.Health)
           with
          | Error (Client.Failed (Wire.Crash, detail)) ->
              Alcotest.(check bool) "detail names the site" true
                (String.length detail > 0)
          | Ok _ -> Alcotest.fail "fault should fail the request"
          | Error e -> Alcotest.failf "expected Failed: %a" Client.pp_error e);
          Runtime.Fault.disable ();
          (* with the fault disarmed the (replaced) pool is healthy again *)
          match call server Wire.Health with
          | Ok (Wire.Healthy _) -> ()
          | _ -> Alcotest.fail "pool should recover once the fault is gone"))

let test_e2e_malformed_line () =
  with_server (fun server ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
        (fun () ->
          Unix.connect sock
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          Wire.write_line sock "this is not json";
          match Wire.read_line sock with
          | Some line -> (
              match Wire.decode_reply line with
              | Ok (_, Wire.Error _) -> ()
              | _ -> Alcotest.failf "expected an error reply, got %s" line)
          | None -> Alcotest.fail "no reply to a malformed line"))

(* ---------------- frame deadlines (slow-loris) ----------------------- *)

let test_read_line_deadline () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () ->
      (* a silent peer: the deadline fires instead of blocking forever *)
      (match Wire.read_line ~deadline:(Unix.gettimeofday () +. 0.1) a with
      | _ -> Alcotest.fail "silent peer should time out"
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ());
      (* a drip-feeding peer: partial bytes never extend the deadline *)
      ignore (Unix.write_substring b "partial" 0 7 : int);
      (match Wire.read_line ~deadline:(Unix.gettimeofday () +. 0.2) a with
      | _ -> Alcotest.fail "drip-fed frame should time out"
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ());
      (* a frame completed before the deadline is unaffected *)
      ignore (Unix.write_substring b "whole\n" 0 6 : int);
      match Wire.read_line ~deadline:(Unix.gettimeofday () +. 5.0) a with
      | Some line -> Alcotest.(check string) "frame" "whole" line
      | None -> Alcotest.fail "expected a frame")

let test_e2e_slow_loris () =
  with_server
    ~config:{ Server.default_config with receive_timeout = 0.3 }
    (fun server ->
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> try Unix.close sock with _ -> ())
        (fun () ->
          Unix.connect sock
            (Unix.ADDR_INET
               (Unix.inet_addr_of_string "127.0.0.1", Server.port server));
          (* drip a frame prefix and stall: the handler must give the
             connection up rather than park a worker on it *)
          ignore (Unix.write_substring sock "{\"op\":" 0 6 : int);
          (match
             Wire.read_line ~deadline:(Unix.gettimeofday () +. 5.0) sock
           with
          | None -> ()
          | Some line -> (
              match Wire.decode_reply line with
              | Ok (_, (Wire.Failed _ | Wire.Error _)) -> ()
              | _ -> Alcotest.failf "unexpected reply %s" line)
          | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
              Alcotest.fail "server kept a drip-fed connection open");
          (* and other clients are still being served *)
          match expect_ok "health" (call server Wire.Health) with
          | Wire.Healthy _ -> ()
          | _ -> Alcotest.fail "expected Healthy"))

(* ---------------- journalled updates end-to-end ---------------------- *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

let with_journal_dir f =
  let dir = Filename.temp_file "shaclprov-service" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Mirror the CLI's recovery discipline: a fresh journal snapshots the
   initial graph so later recoveries never need the data file again. *)
let with_journal_server ?(config = Server.default_config) dir f =
  let r = Runtime.Journal.recover dir in
  let g =
    if r.Runtime.Journal.fresh then begin
      Runtime.Journal.snapshot r.Runtime.Journal.journal graph;
      graph
    end
    else r.Runtime.Journal.graph
  in
  let server =
    Server.start config ~schema ~graph:g ~journal:r.Runtime.Journal.journal
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      ignore (Server.shutdown server))
    (fun () -> f server)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let fix_ttl =
  {|@prefix ex: <http://example.org/> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
ex:dave rdf:type ex:Student .
ex:p2 ex:author ex:dave .|}

let test_e2e_journal_update_and_recover () =
  with_journal_dir (fun dir ->
      with_journal_server dir (fun server ->
          (* the seed data violates WorkshopShape on ex:p2 *)
          (match expect_ok "validate" (call server Wire.Validate) with
          | Wire.Validated { conforms; _ } ->
              Alcotest.(check bool) "violated before fix" false conforms
          | _ -> Alcotest.fail "expected Validated");
          (match
             expect_ok "update"
               (call server (Wire.Update { add = fix_ttl; remove = "" }))
           with
          | Wire.Updated { seq; added; removed; conforms; _ } ->
              Alcotest.(check int) "first journalled seq" 1 seq;
              Alcotest.(check int) "added" 2 added;
              Alcotest.(check int) "removed" 0 removed;
              Alcotest.(check bool) "fix makes it conform" true conforms
          | _ -> Alcotest.fail "expected Updated");
          (match expect_ok "stats" (call server Wire.Stats) with
          | Wire.Statistics { journal = Some js; _ } ->
              Alcotest.(check int) "journal seq" 1 js.Wire.j_seq;
              Alcotest.(check bool) "fsynced before the ack" true
                (js.Wire.j_fsyncs >= 1)
          | Wire.Statistics { journal = None; _ } ->
              Alcotest.fail "journalled server must report journal stats"
          | _ -> Alcotest.fail "expected Statistics");
          (* the maintained fragment now contains the new author edge *)
          match expect_ok "fragment" (call server (Wire.Fragment [])) with
          | Wire.Fragmented { turtle; _ } ->
              Alcotest.(check bool) "fragment mentions the fix" true
                (contains ~sub:"dave" turtle)
          | _ -> Alcotest.fail "expected Fragmented");
      (* a restart on the same directory recovers the updated state
         without ever seeing the data file *)
      with_journal_server dir (fun server ->
          match expect_ok "validate" (call server Wire.Validate) with
          | Wire.Validated { conforms; _ } ->
              Alcotest.(check bool) "recovered state conforms" true conforms
          | _ -> Alcotest.fail "expected Validated"))

(* A journalled server answers an ad-hoc fragment on the store it builds
   lazily after updates ([Incremental.frozen]): the reply must be
   byte-identical to the engine on a fresh freeze of the same triples,
   after updates, after a drain to the empty graph and after a refill.
   Snapshots every second record write that store's graph; a restart
   recovers from them. *)
let test_e2e_journal_adhoc_fragment () =
  let shape_src = ">=1 ex:author . >=1 rdf:type . hasValue(ex:Student)" in
  let shape =
    match Shacl.Shape_syntax.parse ~namespaces:Rdf.Namespace.default shape_src
    with
    | Ok shape -> shape
    | Error _ -> assert false
  in
  let expected g =
    let fresh = Rdf.Graph.freeze (Rdf.Graph.of_list (Rdf.Graph.to_list g)) in
    let fragment, _ =
      Provenance.Engine.run ~schema ~jobs:1 fresh
        [ Provenance.Engine.request ~label:shape_src shape ]
    in
    Rdf.Turtle.to_string ~prefixes:Rdf.Namespace.default fragment
  in
  let check_adhoc server what g =
    match expect_ok what (call server (Wire.Fragment [ shape_src ])) with
    | Wire.Fragmented { turtle; _ } ->
        Alcotest.(check string) (what ^ ": ad-hoc fragment bytes")
          (expected g) turtle
    | _ -> Alcotest.fail "expected Fragmented"
  in
  let update server ~add ~remove =
    match expect_ok "update" (call server (Wire.Update { add; remove })) with
    | Wire.Updated _ -> ()
    | _ -> Alcotest.fail "expected Updated"
  in
  let fix = Rdf.Turtle.parse_exn fix_ttl in
  let config = { Server.default_config with snapshot_every = 2 } in
  with_journal_dir (fun dir ->
      with_journal_server ~config dir (fun server ->
          check_adhoc server "before any update" graph;
          update server ~add:fix_ttl ~remove:"";
          let fixed = Rdf.Graph.union graph fix in
          check_adhoc server "after the fix" fixed;
          check_adhoc server "asked again" fixed;
          update server ~add:"" ~remove:data_ttl;
          check_adhoc server "after a second update" fix;
          update server ~add:"" ~remove:fix_ttl;
          check_adhoc server "drained" Rdf.Graph.empty;
          update server ~add:data_ttl ~remove:"";
          check_adhoc server "refilled" graph;
          update server ~add:fix_ttl ~remove:"");
      with_journal_server ~config dir (fun server ->
          check_adhoc server "recovered" (Rdf.Graph.union graph fix)))

let test_e2e_update_without_journal () =
  with_server (fun server ->
      match call server (Wire.Update { add = fix_ttl; remove = "" }) with
      | Error (Client.Remote_error msg) ->
          Alcotest.(check bool) "error names --journal" true
            (contains ~sub:"journal" msg)
      | Ok _ -> Alcotest.fail "update must be refused without a journal"
      | Error e -> Alcotest.failf "expected Remote_error: %a" Client.pp_error e)

(* A request shape naming no definition of the served schema is a
   request error, as a syntax error is; a defined name still resolves. *)
let test_e2e_undefined_shape () =
  with_server (fun server ->
      let refused what op =
        match call server op with
        | Error (Client.Remote_error msg) ->
            Alcotest.(check bool) (what ^ " names the shape") true
              (contains ~sub:"undefined shape <http://example.org/NoSuchShape>"
                 msg)
        | Ok _ -> Alcotest.failf "%s: an undefined shape must be refused" what
        | Error e ->
            Alcotest.failf "%s: expected Remote_error: %a" what Client.pp_error e
      in
      refused "neighborhood"
        (Wire.Neighborhood { node = "ex:p1"; shape = "shape(ex:NoSuchShape)" });
      refused "fragment"
        (Wire.Fragment [ "top"; ">=1 ex:author . shape(ex:NoSuchShape)" ]);
      match
        expect_ok "defined shape"
          (call server
             (Wire.Neighborhood
                { node = "ex:p1"; shape = "shape(ex:WorkshopShape)" }))
      with
      | Wire.Neighborhoods { conforms; _ } ->
          Alcotest.(check bool) "conforms" true conforms
      | _ -> Alcotest.fail "expected Neighborhoods")

(* A node that opens an IRI with '<' but never closes it is refused, not
   read as the IRI minus its last character. *)
let test_e2e_unterminated_node () =
  with_server (fun server ->
      (match
         call server
           (Wire.Neighborhood
              { node = "<http://example.org/p1x"; shape = ">=1 ex:author . top" })
       with
      | Error (Client.Remote_error msg) ->
          Alcotest.(check bool) "names the node" true
            (contains ~sub:"\"<http://example.org/p1x\"" msg)
      | Ok _ -> Alcotest.fail "an unterminated IRI must be refused"
      | Error e -> Alcotest.failf "expected Remote_error: %a" Client.pp_error e);
      match
        expect_ok "closed IRI"
          (call server
             (Wire.Neighborhood
                { node = "<http://example.org/p1>"; shape = ">=1 ex:author . top" }))
      with
      | Wire.Neighborhoods { conforms; _ } ->
          Alcotest.(check bool) "conforms" true conforms
      | _ -> Alcotest.fail "expected Neighborhoods")

(* ---------------- Server.write_port_file ----------------------------- *)

let test_write_port_file_atomic () =
  let path = Filename.temp_file "shaclprov_port" ".txt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Server.write_port_file path 4321;
      let read () =
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> input_line ic)
      in
      Alcotest.(check string) "content" "4321" (read ());
      (* overwriting is atomic too: the rename replaces the old file *)
      Server.write_port_file path 65000;
      Alcotest.(check string) "overwritten" "65000" (read ());
      (* no temp litter left beside the file *)
      let dir = Filename.dirname path and base = Filename.basename path in
      let litter =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               f <> base
               && String.length f > String.length base
               && String.sub f 0 (String.length base) = base)
      in
      Alcotest.(check (list string)) "no temp litter" [] litter)

(* One frame through a socket pair, written from another domain so a
   frame larger than the socket buffer cannot block the test. *)
let through_socket ?(send = fun fd line -> Wire.write_line fd line) line =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
    (fun () ->
      let writer = Domain.spawn (fun () -> send b line) in
      let got = Wire.read_line ~deadline:(Unix.gettimeofday () +. 30.0) a in
      Domain.join writer;
      got)

(* Frames around the reader's 4 KB first read and its 64 KB reads, and
   one that spans many reads, arrive whole. *)
let test_frame_spans_reads () =
  List.iter
    (fun n ->
      let line = String.init n (fun i -> Char.chr (32 + (i * 7 mod 95))) in
      match through_socket line with
      | Some got ->
          Alcotest.(check int) (Printf.sprintf "length of a %d-byte frame" n)
            n (String.length got);
          Alcotest.(check bool) (Printf.sprintf "%d-byte frame" n) true
            (String.equal got line)
      | None -> Alcotest.failf "no %d-byte frame" n)
    [ 0; 1; 4095; 4096; 4097; 65535; 65536; 65537; 69632; 700_001 ];
  (* a frame dripped in small writes arrives whole, and the reader
     holds about what it received, not a chunk per read *)
  List.iter
    (fun (n, step) ->
      let line = String.init n (fun i -> Char.chr (32 + (i * 13 mod 95))) in
      let drip fd line =
        let off = ref 0 and writes = ref 0 in
        while !off < n do
          let k = Int.min step (n - !off) in
          off := !off + Unix.write_substring fd line !off k;
          incr writes;
          if !writes mod 16 = 0 then Unix.sleepf 0.0005
        done;
        ignore (Unix.write_substring fd "\n" 0 1 : int)
      in
      let before = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
      let got = through_socket ~send:drip line in
      let words =
        Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. before
      in
      Alcotest.(check (option string))
        (Printf.sprintf "%d bytes in %d-byte writes" n step)
        (Some line) got;
      (* the frame, its chunks and the final copy, with room for the
         test's own allocations; a 64 KB chunk per read would exceed it
         many times over *)
      let bytes = words *. float_of_int (Sys.word_size / 8) in
      if bytes > float_of_int ((8 * n) + (1 lsl 20)) then
        Alcotest.failf "%d bytes in %d-byte writes allocated %.0f bytes" n
          step bytes)
    [ (3_000, 1); (200_000, 7) ];
  (* a peer that closes mid-frame: what arrived is the frame *)
  List.iter
    (fun n ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with _ -> ()) [ a; b ])
        (fun () ->
          let part = String.make n 'x' in
          let writer =
            Domain.spawn (fun () ->
                ignore (Unix.write_substring b part 0 n : int);
                Unix.shutdown b Unix.SHUTDOWN_SEND)
          in
          let got = Wire.read_line a in
          Domain.join writer;
          Alcotest.(check (option string))
            (Printf.sprintf "%d bytes, then EOF" n)
            (if n = 0 then None else Some part)
            got))
    [ 0; 7; 100_000 ]

let suite =
  [ "json: roundtrip", `Quick, test_json_roundtrip;
    "json: single line", `Quick, test_json_single_line;
    "json: escapes", `Quick, test_json_escapes;
    "json: total on garbage", `Quick, test_json_total_on_garbage;
    "wire: request roundtrip", `Quick, test_request_roundtrip;
    "wire: request decode errors", `Quick, test_request_decode_errors;
    "wire: reply roundtrip", `Quick, test_reply_roundtrip;
    "bqueue: bounded, sheds", `Quick, test_bqueue_bounded_shed;
    "bqueue: close drains", `Quick, test_bqueue_close_drains;
    "bqueue: close wakes consumers", `Quick,
    test_bqueue_close_wakes_blocked_consumers;
    "bqueue: push blocks until pop", `Quick, test_bqueue_push_blocks_until_pop;
    "bqueue: close wakes blocked producers", `Quick,
    test_bqueue_close_wakes_blocked_producer;
    "bqueue: capacity clamped", `Quick, test_bqueue_capacity_clamped;
    "pool: processes everything", `Quick, test_pool_processes_all;
    "pool: replaces crashed workers", `Quick,
    test_pool_replaces_crashed_workers;
    "e2e: ops over a socket", `Quick, test_e2e_ops;
    "e2e: fragment determinism across the wire", `Quick,
    test_e2e_fragment_determinism;
    "e2e: budget maps to a failed reply", `Quick, test_e2e_budget_failed_reply;
    "e2e: shedding and graceful drain", `Quick, test_e2e_shed_and_drain;
    "e2e: worker fault is isolated and retried", `Quick,
    test_e2e_worker_fault_isolation;
    "e2e: persistent fault never kills the server", `Quick,
    test_e2e_persistent_fault_not_fatal;
    "e2e: malformed frame gets an error reply", `Quick,
    test_e2e_malformed_line;
    "wire: read_line deadline", `Quick, test_read_line_deadline;
    "e2e: slow-loris frame is abandoned", `Quick, test_e2e_slow_loris;
    "e2e: journalled update and recovery", `Quick,
    test_e2e_journal_update_and_recover;
    "e2e: journalled ad-hoc fragment = fresh freeze", `Quick,
    test_e2e_journal_adhoc_fragment;
    "e2e: update refused without a journal", `Quick,
    test_e2e_update_without_journal;
    "e2e: an undefined request shape is refused", `Quick,
    test_e2e_undefined_shape;
    "e2e: an unterminated node IRI is refused", `Quick,
    test_e2e_unterminated_node;
    "server: port file is written atomically", `Quick,
    test_write_port_file_atomic;
    "wire: a frame spans many reads", `Quick, test_frame_spans_reads ]

(* Wire codec property: any request roundtrips, including shapes with
   hostile bytes. *)
let arbitrary_request =
  let open QCheck in
  let gen_string = Gen.string_size ~gen:Gen.printable (Gen.int_range 0 30) in
  let gen_op =
    Gen.oneof
      [ Gen.return Wire.Validate;
        Gen.map (fun l -> Wire.Fragment l)
          (Gen.list_size (Gen.int_range 0 3) gen_string);
        Gen.map2
          (fun node shape -> Wire.Neighborhood { node; shape })
          gen_string gen_string;
        Gen.return Wire.Health;
        Gen.return Wire.Stats;
        Gen.map (fun ms -> Wire.Sleep ms) (Gen.int_range 0 10_000) ]
  in
  let gen =
    Gen.map3
      (fun op id (timeout, fuel) -> { (Wire.request op) with id; timeout; fuel })
      gen_op
      (Gen.opt gen_string)
      (Gen.pair
         (Gen.opt (Gen.float_range 0.001 100.0))
         (Gen.opt (Gen.int_range 1 1_000_000)))
  in
  make gen ~print:Wire.encode_request

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire: encode/decode request identity" ~count:500
    arbitrary_request roundtrip_request

(* Reply codec property: strings with every control character, quotes,
   backslashes, a '/', DEL and non-ASCII text (valid UTF-8 or not) come
   back byte for byte, in one line, through a socket. *)
let gen_wire_string =
  let open QCheck.Gen in
  let piece =
    oneof
      [ string_size ~gen:(map Char.chr (int_range 0 31)) (int_range 0 8);
        string_size ~gen:(oneofl [ '"'; '\\'; '/'; '\127'; 'a'; ' ' ])
          (int_range 0 8);
        string_size ~gen:char (int_range 0 8);
        oneofl [ "é"; "日本語"; "\xF0\x9F\x90\xAB"; "\\u0000"; "\\\""; "\xC3" ];
        return (String.init 32 Char.chr) ]
  in
  map (String.concat "") (list_size (int_range 0 12) piece)

let prop_reply_strings =
  QCheck.Test.make ~name:"wire: reply strings round-trip through a socket"
    ~count:300
    (QCheck.make gen_wire_string ~print:String.escaped)
    (fun str ->
      List.for_all
        (fun reply ->
          let line = Wire.encode_reply ~id:str reply in
          (not (String.contains line '\n'))
          && Wire.Json.of_string (Wire.Json.to_string (Wire.Json.Str str))
             = Ok (Wire.Json.Str str)
          &&
          match Option.map Wire.decode_reply (through_socket line) with
          | Some (Ok (Some id, got)) -> id = str && got = reply
          | _ -> false)
        [ Wire.Fragmented { triples = String.length str; turtle = str };
          Wire.Neighborhoods { conforms = true; turtle = str };
          Wire.Error str ])

let props = [ prop_request_roundtrip; prop_reply_strings ]
