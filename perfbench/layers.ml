(* The traced run: the library functions the binary calls, invoked
   in-process one layer at a time on the workload's own files, with
   time, allocation and counts recorded at each layer boundary.  Every
   workload reports the same per-layer metrics; {!targets} names the
   end-to-end metric each one should move. *)

open Inputs
module Engine = Provenance.Engine
module Incremental = Provenance.Incremental

let now = Proc.now

(* A span around one layer call: result, seconds, minor words and major
   words allocated. *)
type span = { secs : float; minor : float; major : float }

let span f =
  let s0 = Gc.quick_stat () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let s1 = Gc.quick_stat () in
  ( r,
    { secs = t1 -. t0;
      minor = s1.minor_words -. s0.minor_words;
      major = s1.major_words -. s0.major_words } )

let time f = let r, s = span f in (r, s.secs)

(* Metric name prefix -> the end-to-end metric it should move. *)
let targets =
  [ ("turtle.parse", "setup_s, validate_ms (kg-cli), fragment_ms (kg-cli)");
    ("shapes_graph.", "setup_s, validate_ms (kg-cli), fragment_ms (kg-cli)");
    ("analyzer.", "setup_s, validate_ms (kg-cli), fragment_ms (kg-cli)");
    ("store.", "setup_s, fragment_ms (kg-cli)");
    ("validate.", "validate_ms (kg-cli)");
    ("report.", "validate_ms (kg-cli)");
    ("engine.validate", "validate_ms (serve-read)");
    ("engine.adhoc", "fragment_ms (serve-read)");
    ("engine.", "fragment_ms (kg-cli)");
    ("turtle.serialize", "fragment_ms (kg-cli)");
    ("turtle.reply_serialize", "neighborhood_ms, fragment_ms (serve-*)");
    ("neighborhood.", "neighborhood_ms");
    ("wire.", "neighborhood_ms, fragment_ms (serve-*)");
    ("service.", "neighborhood_ms");
    ("server.", "failed");
    ("incremental.create", "setup_s (serve-write)");
    ("incremental.", "validate_ms (serve-write, an update round trip)");
    ("journal.recover", "setup_s (serve-write restart)");
    ("journal.", "validate_ms (serve-write, an update round trip)");
    ("delta.", "validate_ms (serve-write, an update round trip)");
    ("heap.", "server_rss_mb");
    ("fig1.", "none: the paper's Fig. 1 overhead");
    ("trace.", "none: tracing overhead of this run");
    ("failed_frac", "failed") ]

let target_of name =
  match
    List.find_opt
      (fun (p, _) -> String.length name >= String.length p
                     && String.sub name 0 (String.length p) = p)
      targets
  with
  | Some (_, t) -> t
  | None -> "-"

let run (env : E2e.env) inst =
  let tally = env.tally in
  let m = Tally.metric tally in
  let check ok what = Tally.op tally ok what in
  let ms s = s *. 1000.0 and us s = s *. 1e6 in
  let median_ms xs = ms (Stats.median xs) in
  (* --- untraced pipeline, for the tracing overhead: what CLI fragment
     runs, timed as one span; the traced spans below cover the same
     calls --------------------------------------------------------- *)
  let plain () =
    Gc.compact ();
    snd
      (time (fun () ->
           let g = Rdf.Turtle.parse_file_exn env.data |> Rdf.Graph.freeze in
           let schema = Replay.load_schema env.shapes in
           ignore (Analysis.Analyzer.analyze schema);
           let frag, _ =
             Engine.run ~schema ~jobs:1 g (Engine.requests_of_schema schema)
           in
           ignore (Replay.turtle frag)))
  in
  let plain_before = plain () in
  Gc.compact ();
  (* --- parse, schema, freeze --------------------------------------- *)
  let t_start = now () in
  let parsed, sp = span (fun () -> Rdf.Turtle.parse_file_exn env.data) in
  m "turtle.parse_s" "s" sp.secs;
  m "turtle.parse_minor_words" "words" sp.minor;
  m "turtle.parse_major_words" "words" sp.major;
  check (Rdf.Graph.equal parsed inst.graph) "parsed data differs from the generated graph";
  let schema, t = time (fun () -> Replay.load_schema env.shapes) in
  m "shapes_graph.load_s" "s" t;
  let diags, t = time (fun () -> Analysis.Analyzer.analyze schema) in
  m "analyzer.analyze_s" "s" t;
  Tally.info_int tally "analyzer_diagnostics" (List.length diags);
  let g, sp = span (fun () -> Rdf.Graph.freeze parsed) in
  m "store.freeze_s" "s" sp.secs;
  m "store.freeze_words" "words" (sp.minor +. sp.major);
  (* --- engine: schema fragment, as CLI fragment runs it -------------- *)
  let (frag, st), sp =
    span (fun () -> Engine.run ~schema ~jobs:1 g (Engine.requests_of_schema schema))
  in
  m "store.interned_terms" "count" (float_of_int st.interned_terms);
  m "engine.planning_s" "s" st.planning;
  m "engine.eval_s" "s" (st.wall -. st.planning);
  m "engine.minor_words" "words" sp.minor;
  let count name v = m name "count" (float_of_int v) in
  count "engine.nodes_checked" st.nodes_checked;
  count "engine.path_evals" st.path_evals;
  count "engine.store_lookups" st.store_lookups;
  count "engine.batch_calls" st.batch_calls;
  count "engine.batch_sources" st.batch_sources;
  count "engine.rows_materialized" st.rows_materialized;
  m "engine.memo_hit_ratio" "ratio"
    (float_of_int st.memo_hits /. float_of_int (max 1 st.memo_lookups));
  count "engine.triples_emitted" st.triples_emitted;
  let frag_text, t = time (fun () -> Replay.turtle frag) in
  m "turtle.serialize_s" "s" t;
  m "turtle.serialize_bytes" "bytes" (float_of_int (String.length frag_text));
  let traced_s = now () -. t_start in
  m "heap.top_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
     /. 1048576.0);
  (* untraced before and after, so neither side is always the cold one *)
  let plain_s = (plain_before +. plain ()) /. 2.0 in
  m "trace.overhead_pct" "%" ((traced_s -. plain_s) /. plain_s *. 100.0);
  Tally.info_num tally "pipeline_untraced_s" plain_s;
  Tally.info_num tally "pipeline_traced_s" traced_s;
  (* --- default CLI validate path ------------------------------------ *)
  let report, t = time (fun () -> Shacl.Validate.validate schema g) in
  m "validate.eval_s" "s" t;
  let report_text, t =
    time (fun () -> Format.asprintf "%a@." Shacl.Validate.pp_report report)
  in
  m "report.render_s" "s" t;
  (* --- engine validate (the service's validate path) ---------------- *)
  let (ereport, est), t = time (fun () -> Engine.validate ~jobs:1 schema g) in
  m "engine.validate_s" "s" t;
  count "engine.validate_nodes_checked" est.nodes_checked;
  count "engine.validate_path_evals" est.path_evals;
  check
    (String.equal report_text (Format.asprintf "%a@." Shacl.Validate.pp_report ereport))
    "Engine.validate report differs from Validate.validate";
  let full_recompute_s = t +. st.wall in
  (* --- request replay: evaluate, serialize, encode, decode ---------- *)
  let stage = Hashtbl.create 16 in
  let record k v =
    Hashtbl.replace stage k (v :: Option.value ~default:[] (Hashtbl.find_opt stage k))
  in
  let get k = Option.value ~default:[] (Hashtbl.find_opt stage k) in
  let replay r =
    let k = kind r in
    let ev, t = time (fun () -> Replay.evaluate ~schema g r) in
    record (k ^ ".eval") t;
    (match ev with
    | Replay.Fragment (_, s) -> record "adhoc_nodes" (float_of_int s.nodes_checked)
    | _ -> ());
    let reply, t = time (fun () -> Replay.reply_of ev) in
    record (k ^ ".serialize") t;
    let line, t = time (fun () -> Service.Wire.encode_reply reply) in
    record (k ^ ".encode") t;
    record (k ^ ".bytes") (float_of_int (String.length line));
    let decoded, t = time (fun () -> Service.Wire.decode_reply line) in
    record (k ^ ".decode") t;
    check (decoded = Ok (None, reply)) "reply does not survive the wire codec";
    reply
  in
  let expected = Hashtbl.create 256 in
  Array.iter (fun r -> Hashtbl.replace expected r (replay r)) inst.nbh_pool;
  Array.iter (fun r -> ignore (replay r)) frag_pool;
  ignore (replay Val);
  m "neighborhood.check_ms" "ms" (median_ms (get "neighborhood.eval"));
  m "engine.adhoc_run_ms" "ms" (median_ms (get "fragment.eval"));
  m "engine.adhoc_nodes_checked" "count" (Stats.median (get "adhoc_nodes"));
  List.iter
    (fun k ->
      if k <> "validate" then
        m ("turtle.reply_serialize_ms." ^ k) "ms" (median_ms (get (k ^ ".serialize")));
      m ("wire.encode_reply_us." ^ k) "us" (us (Stats.median (get (k ^ ".encode"))));
      m ("wire.decode_reply_us." ^ k) "us" (us (Stats.median (get (k ^ ".decode"))));
      m ("wire.reply_bytes." ^ k) "bytes" (Stats.median (get (k ^ ".bytes"))))
    [ "neighborhood"; "fragment"; "validate" ];
  (* --- one server: client round trips and server counters ---------- *)
  let journal = Filename.concat env.dir "journal" in
  let extra =
    match inst.workload with
    | Serve_write -> [ "--journal"; journal; "--fsync"; "always" ]
    | Kg_cli | Serve_read -> []
  in
  let server, setup =
    Proc.start_server ~bin:env.bin ~dir:env.dir ~tag:"traced" (E2e.serve_args env extra)
  in
  Tally.info_num tally "traced_server_setup_s" setup;
  let client = ref [] in
  Array.iter
    (fun r ->
      let reply, dt = Proc.round_trip server.port (op r) in
      client := dt :: !client;
      check (reply = Ok (Hashtbl.find expected r)) "served neighborhood differs from the replay")
    inst.nbh_pool;
  let in_process =
    List.fold_left
      (fun acc k -> acc +. Stats.median (get ("neighborhood." ^ k)))
      0.0 [ "eval"; "serialize"; "encode"; "decode" ]
  in
  m "service.transport_ms" "ms" (ms (Stats.median !client -. in_process));
  (match E2e.server_stats env server.port with
  | Some s ->
      List.iter
        (fun (k, v) -> count ("server." ^ k) v)
        [ ("served", s.served); ("shed", s.shed); ("failed", s.failed);
          ("rejected", s.rejected); ("dropped", s.dropped); ("crashes", s.crashes) ]
  | None -> ());
  E2e.stop env server;
  Proc.rm_rf journal;
  (* --- incremental revalidation and the journal --------------------- *)
  let inc, t = time (fun () -> Incremental.create ~schema g) in
  m "incremental.create_s" "s" t;
  let pairs = (Incremental.stats inc).pairs in
  let j = (Runtime.Journal.recover ~policy:Runtime.Journal.Always journal).journal in
  Runtime.Journal.snapshot j g;
  let by_size = Hashtbl.create 4 in
  List.iter
    (fun (k, _, upd) ->
      let add, remove =
        match upd with
        | Service.Wire.Update { add; remove } -> (add, remove)
        | _ -> assert false
      in
      (* as the server does: parse the delta, append it, apply it *)
      let delta, t =
        time (fun () ->
            let side s =
              if s = "" then [] else Rdf.Graph.to_list (Rdf.Turtle.parse_exn s)
            in
            Rdf.Delta.make ~removes:(side remove) ~adds:(side add) ())
      in
      record "delta.parse" t;
      let _, t = time (fun () -> Runtime.Journal.append j delta) in
      record "journal.append" t;
      let u, t = time (fun () -> Incremental.apply inc delta) in
      Hashtbl.replace by_size k
        ((t, u) :: Option.value ~default:[] (Hashtbl.find_opt by_size k)))
    (E2e.update_ops inst ~pairs:5);
  let js = Runtime.Journal.stats j in
  m "journal.append_ms" "ms" (median_ms (get "journal.append"));
  count "journal.fsyncs" js.fsyncs;
  m "journal.bytes_per_update" "bytes"
    (float_of_int js.bytes /. float_of_int (max 1 js.records));
  m "delta.parse_ms" "ms" (median_ms (get "delta.parse"));
  Runtime.Journal.close j;
  let recovered, t =
    time (fun () -> Runtime.Journal.recover ~policy:Runtime.Journal.Always journal)
  in
  m "journal.recover_s" "s" t;
  check (Rdf.Graph.equal recovered.graph g) "recovered journal graph differs";
  Runtime.Journal.close recovered.journal;
  m "incremental.full_recompute_s" "s" full_recompute_s;
  List.iter
    (fun k ->
      let rows = Option.value ~default:[] (Hashtbl.find_opt by_size k) in
      let med f = Stats.median (List.map f rows) in
      let apply_s = med fst in
      let sfx = string_of_int k in
      m ("incremental.apply_ms." ^ sfx) "ms" (ms apply_s);
      m ("incremental.dirty_pairs." ^ sfx) "count"
        (med (fun (_, u) -> float_of_int u.Incremental.dirty));
      m ("incremental.rechecked." ^ sfx) "count"
        (med (fun (_, u) -> float_of_int u.Incremental.rechecked));
      m ("incremental.recheck_ratio." ^ sfx) "ratio"
        (med (fun (_, u) -> float_of_int u.Incremental.rechecked /. float_of_int pairs));
      m ("incremental.speedup_vs_full." ^ sfx) "x" (full_recompute_s /. apply_s))
    [ 1; 10 ];
  check
    (String.equal report_text
       (Format.asprintf "%a@." Shacl.Validate.pp_report (Incremental.report inc))
    && String.equal frag_text (Replay.turtle (Incremental.fragment inc)))
    "incremental state after the restoring updates differs from scratch";
  (* --- Fig. 1: provenance extraction over plain validation ----------- *)
  let overheads =
    List.filter_map
      (fun (def : Shacl.Schema.def) ->
        if not (Shacl.Schema.targeted def) then None
        else
          let focus = Shacl.Validate.target_nodes schema g def in
          let plain () =
            let c = Shacl.Conformance.checker schema g def.shape in
            Rdf.Term.Set.iter (fun v -> ignore (c v)) focus
          and prov () =
            let c = Provenance.Neighborhood.checker ~schema g def.shape in
            Rdf.Term.Set.iter (fun v -> ignore (c v)) focus
          in
          let best f = Float.min (snd (time f)) (snd (time f)) in
          let t_plain = best plain and t_prov = best prov in
          if t_plain <= 0.0 then None
          else Some (t_plain, (t_prov -. t_plain) /. t_plain *. 100.0))
      (Shacl.Schema.defs schema)
  in
  m "fig1.overhead_pct_median" "%" (Stats.median (List.map snd overheads));
  let cutoff = Stats.sorted (List.map fst overheads) in
  let cutoff = cutoff.(Array.length cutoff * 3 / 4) in
  let slow = List.filter (fun (t, _) -> t >= cutoff) overheads in
  m "fig1.overhead_pct_slow" "%"
    (List.fold_left (fun a (_, o) -> a +. o) 0.0 slow /. float_of_int (List.length slow));
  Tally.info_int tally "fig1_shapes" (List.length overheads);
  m "failed_frac" "ratio"
    (Stats.failed_frac ~failed:tally.failed ~attempted:(max 1 tally.attempted))
