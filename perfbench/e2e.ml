(* The untraced end-to-end runs: the built binary driven as a user
   drives it, every output checked against the in-process reference.
   Every workload reports the same end-to-end metrics (see NOTES.md for
   what each one times on each workload). *)

open Inputs

type env = {
  bin : string;     (* the shaclprov executable *)
  dir : string;     (* this run's scratch directory *)
  data : string;    (* data graph file *)
  shapes : string;  (* survey shapes file *)
  tally : Tally.t;
}

let ms s = s *. 1000.0

let serve_args env extra = [ "-d"; env.data; "-s"; env.shapes; "-j"; "2" ] @ extra

(* Latency samples per request kind, appended from client threads. *)
type samples = { lock : Mutex.t; tbl : (string, float list) Hashtbl.t }

let samples () = { lock = Mutex.create (); tbl = Hashtbl.create 8 }

let add s k v =
  Mutex.lock s.lock;
  Hashtbl.replace s.tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt s.tbl k));
  Mutex.unlock s.lock

let get s k = Option.value ~default:[] (Hashtbl.find_opt s.tbl k)

let pp_reply_error = function
  | Ok _ -> "reply differs from the expected one"
  | Error e -> Format.asprintf "%a" Service.Client.pp_error e

(* One request, checked against [expect] (any ok reply when [None]). *)
let request env samples ~port ~kind ?expect op =
  let r, dt = Proc.round_trip port op in
  let ok =
    match r, expect with
    | Ok reply, Some e -> reply = e
    | Ok _, None -> true
    | Error _, _ -> false
  in
  Tally.op env.tally ok (kind ^ " request: " ^ if ok then "" else pp_reply_error r);
  add samples kind dt;
  r

(* [n] closed-loop clients, each sending its next request only after
   the previous reply, over the shared list [reqs]. *)
let closed_loop ~clients reqs f =
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length reqs then begin
        f reqs.(i);
        go ()
      end
    in
    go ()
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create worker ()))

let server_stats env port =
  match Proc.round_trip port Service.Wire.Stats with
  | Ok (Service.Wire.Statistics s), _ ->
      List.iter
        (fun (k, v) -> Tally.info_int env.tally ("server." ^ k) v)
        [ ("served", s.served); ("shed", s.shed); ("failed", s.failed);
          ("rejected", s.rejected); ("dropped", s.dropped);
          ("crashes", s.crashes) ];
      Tally.op env.tally
        (s.shed + s.failed + s.rejected + s.dropped + s.crashes = 0)
        "server counters report shed, failed, rejected or dropped requests";
      Some s
  | _ ->
      Tally.op env.tally false "stats request";
      None

let stop env server =
  Tally.op env.tally (Proc.stop_server server) "serve did not drain cleanly"

(* Set-up: start [set_ups] servers one after another and stop all but
   the last.  Returns the last server, the median start-up time and the
   median peak RSS once loaded. *)
let set_ups = 5

let set_up env args_of =
  let times = ref [] and rss = ref [] in
  let rec go i =
    let server, t =
      Proc.start_server ~bin:env.bin ~dir:env.dir
        ~tag:(Printf.sprintf "serve%d" i) (args_of i)
    in
    times := t :: !times;
    rss := Proc.vm_hwm_mb server.pid :: !rss;
    if i < set_ups then begin
      stop env server;
      go (i + 1)
    end
    else server
  in
  let last = go 1 in
  (last, Stats.median !times, Stats.median !rss)

(* Tails are recorded with their percentile and sample count, but not
   bounded: their run-to-run spread on a 2-core machine is too wide. *)
let record_latencies env samples kinds =
  List.iter
    (fun k ->
      let xs = get samples k in
      Tally.info_int env.tally (k ^ "_samples") (List.length xs);
      Tally.info_num env.tally (k ^ "_p50_ms") (ms (Stats.median xs));
      match Stats.tail xs with
      | Some t ->
          Tally.info_num env.tally (k ^ "_tail_ms") (ms t.value);
          Tally.info_num env.tally (k ^ "_tail_percentile") t.percentile
      | None -> ())
    kinds

let p50 samples k = ms (Stats.median (get samples k))

let finish env ~setup ~validate ~fragment ~nbh ~rss =
  let m = Tally.metric env.tally in
  m "setup_s" "s" setup;
  m "validate_ms" "ms" validate;
  m "fragment_ms" "ms" fragment;
  m "neighborhood_ms" "ms" nbh;
  m "server_rss_mb" "MB" rss

(* ---------------- kg-cli -------------------------------------------- *)

let kg_cli env inst ~seconds =
  let schema = Replay.load_schema env.shapes in
  let g = inst.graph in
  (* references, computed once, outside the timed part *)
  let report = Shacl.Validate.validate schema g in
  let validate_ref = Format.asprintf "%a@." Shacl.Validate.pp_report report in
  let validate_code = if report.conforms then 0 else 1 in
  let frag_graph, _ =
    Provenance.Engine.run ~kernel:`Per_node ~schema ~jobs:1 g
      (Provenance.Engine.requests_of_schema schema)
  in
  let fragment_ref = Replay.turtle frag_graph in
  let nbh_refs =
    Array.map (Replay.cli_neighborhood ~schema g) (Array.sub inst.nbh_pool 0 64)
  in
  Gc.compact ();
  (* set-up: serve on the same files *)
  let server, setup, rss = set_up env (fun _ -> serve_args env []) in
  stop env server;
  (* the CLI loop: validate, fragment and one node's neighborhood, at
     default flags *)
  let samples = samples () in
  let cli kind args expect_code expect_out =
    let out = Filename.concat env.dir (kind ^ ".out") in
    let code, dt =
      Proc.run_cli ~stdout_file:out
        (Array.of_list
           ([ env.bin; kind; "--data"; env.data; "--shapes"; env.shapes ] @ args))
    in
    Tally.op env.tally
      (code = expect_code && String.equal (read_file out) expect_out)
      (Printf.sprintf "%s: exit %d, output differs from the reference" kind code);
    add samples kind dt;
    out
  in
  let t_end = Proc.now () +. float_of_int seconds in
  let last_frag = ref "" in
  let i = ref 0 in
  while !i < 2 || (Proc.now () < t_end && !i < Array.length nbh_refs) do
    ignore (cli "validate" [] validate_code validate_ref);
    last_frag := cli "fragment" [] 0 fragment_ref;
    (match inst.nbh_pool.(!i) with
    | Nbh { node; shape } ->
        ignore (cli "neighborhood" [ "--shape"; shape; "--node"; node ] 0 nbh_refs.(!i))
    | Frag _ | Val -> assert false);
    incr i
  done;
  (match Rdf.Turtle.parse_file !last_frag with
  | Ok out -> Tally.op env.tally (Rdf.Graph.equal out frag_graph) "fragment graph differs"
  | Error _ -> Tally.op env.tally false "fragment output does not parse");
  Tally.info_int env.tally "cli_iterations" !i;
  Tally.info_int env.tally "fragment_triples" (Rdf.Graph.cardinal frag_graph);
  record_latencies env samples [ "neighborhood"; "validate"; "fragment" ];
  finish env ~setup ~validate:(p50 samples "validate")
    ~fragment:(p50 samples "fragment") ~nbh:(p50 samples "neighborhood") ~rss

(* ---------------- serve-read ---------------------------------------- *)

(* requests per second of the run window, so the count (and with it the
   tail percentile) is fixed for a given --seconds *)
let read_rate = 100

let serve_read env inst ~seconds =
  let schema = Replay.load_schema env.shapes in
  let reqs = request_list inst ~count:(read_rate * seconds) in
  let expect = Replay.table ~schema inst.graph reqs in
  Gc.compact ();
  let server, setup, rss = set_up env (fun _ -> serve_args env []) in
  let samples = samples () in
  let t0 = Proc.now () in
  closed_loop ~clients:2 reqs (fun r ->
      ignore
        (request env samples ~port:server.port ~kind:(kind r)
           ~expect:(Hashtbl.find expect r) (op r)));
  let elapsed = Proc.now () -. t0 in
  Tally.info_num env.tally "throughput_rps" (float_of_int (Array.length reqs) /. elapsed);
  ignore (server_stats env server.port);
  Tally.info_num env.tally "under_load_rss_mb" (Proc.vm_hwm_mb server.pid);
  stop env server;
  record_latencies env samples [ "neighborhood"; "validate"; "fragment" ];
  finish env ~setup ~validate:(p50 samples "validate")
    ~fragment:(p50 samples "fragment") ~nbh:(p50 samples "neighborhood") ~rss

(* ---------------- serve-write --------------------------------------- *)

(* The writer is an open loop: one update due every [write_period]
   seconds, timed from when it was due, so a stalled update also
   charges the lateness it imposes on the next.  The period keeps the
   writer's lock busy under a fifth of the time (a third when the
   machine or its disk is slow), so reader medians time the reads. *)
let write_period = 0.6

let update_ops inst ~pairs =
  List.concat_map
    (fun ts ->
      let ttl = turtle_of_triples ts and k = List.length ts in
      [ (k, `Remove, Service.Wire.Update { add = ""; remove = ttl });
        (k, `Restore, Service.Wire.Update { add = ttl; remove = "" }) ])
    (delta_triples inst ~pairs)

let serve_write env inst ~seconds =
  let schema = Replay.load_schema env.shapes in
  let g = inst.graph in
  let validate_ref =
    Replay.validated (fst (Provenance.Engine.validate ~jobs:1 schema g))
  in
  let fragment_ref = Replay.schema_fragment ~schema g in
  let updates =
    update_ops inst ~pairs:(int_of_float (float_of_int seconds /. write_period) / 2)
  in
  (* the reader cycles neighborhood, schema fragment and validate *)
  let reader_op i =
    match i mod 3 with
    | 0 -> ("neighborhood", op inst.nbh_pool.(i / 3 mod Array.length inst.nbh_pool))
    | 1 -> ("fragment", Service.Wire.Fragment [])
    | _ -> ("validate", Service.Wire.Validate)
  in
  Gc.compact ();
  let journal i = Filename.concat env.dir (Printf.sprintf "journal%d" i) in
  let args i = serve_args env [ "--journal"; journal i; "--fsync"; "always" ] in
  let server, setup, rss = set_up env args in
  let samples = samples () in
  let writing = Atomic.make true in
  let writer () =
    let t0 = Proc.now () in
    List.iteri
      (fun i (k, dir, upd) ->
        let due = t0 +. (float_of_int i *. write_period) in
        Unix.sleepf (Float.max 0.0 (due -. Proc.now ()));
        let r, _ = Proc.round_trip server.port upd in
        let dt = Proc.now () -. due in
        let ok =
          match r, dir with
          | Ok (Service.Wire.Updated u), `Remove -> u.removed = k && u.added = 0
          | Ok (Service.Wire.Updated u), `Restore -> u.added = k && u.removed = 0
          | _ -> false
        in
        Tally.op env.tally ok ("update: " ^ pp_reply_error r);
        add samples "update" dt;
        add samples (Printf.sprintf "update_%d" k) dt)
      updates;
    Atomic.set writing false
  in
  let reader () =
    let i = ref 0 in
    while Atomic.get writing do
      let kind, o = reader_op !i in
      ignore (request env samples ~port:server.port ~kind o);
      incr i
    done
  in
  let threads = [ Thread.create writer (); Thread.create reader () ] in
  List.iter Thread.join threads;
  (* the pairs restored the initial graph: the maintained answers must
     equal a from-scratch evaluation of it *)
  let final port tag =
    ignore (request env samples ~port ~kind:(tag ^ "validate") ~expect:validate_ref
              Service.Wire.Validate);
    ignore (request env samples ~port ~kind:(tag ^ "fragment") ~expect:fragment_ref
              (Service.Wire.Fragment []))
  in
  final server.port "final_";
  ignore (server_stats env server.port);
  Tally.info_num env.tally "under_load_rss_mb" (Proc.vm_hwm_mb server.pid);
  (* durability: SIGKILL after the last acknowledged update, restart on
     the same journal *)
  Proc.kill_server server;
  let restarted, restart =
    Proc.start_server ~bin:env.bin ~dir:env.dir ~tag:"restart" (args set_ups)
  in
  Tally.info_num env.tally "restart_s" restart;
  final restarted.port "recovered_";
  stop env restarted;
  record_latencies env samples
    [ "update"; "update_1"; "update_10"; "neighborhood"; "validate"; "fragment" ];
  finish env ~setup ~validate:(p50 samples "update")
    ~fragment:(p50 samples "fragment") ~nbh:(p50 samples "neighborhood") ~rss

let run env inst ~seconds =
  match inst.workload with
  | Kg_cli -> kg_cli env inst ~seconds
  | Serve_read -> serve_read env inst ~seconds
  | Serve_write -> serve_write env inst ~seconds
