(* Incremental revalidation vs full recomputation.

   Seeds Provenance.Incremental with the 57-shape survey suite over a
   generated Kg graph, then measures the cost of absorbing deltas of
   three sizes — a single triple, ten triples, and 1% of the graph —
   against the from-scratch baseline (Engine.validate for the report
   plus Engine.run for the fragment, which is exactly the state the
   incremental engine maintains).  Each delta removes randomly chosen
   existing triples and is then reverted, so every measurement starts
   from the same graph; timings are interleaved min-of-N pairs as in
   exp_containment.  After the remove half of each cycle the
   incremental report and fragment are checked against the from-scratch
   answers (report via its printed form, fragment byte-for-byte on the
   Turtle serialization), and the store the state builds on demand
   (Incremental.frozen) against a from-scratch build of the post-delta
   graph.  Results go to BENCH_incremental.json: the initial build's
   time at -j 1 and at -j = cores, the live heap the built state holds,
   whether the two builds agree (report, fragment, statistics and
   counts), whether every on-demand store equals its from-scratch build
   (identical_store), and per delta size, the dirty-pair and recheck
   counts, the incremental and full latencies, the speedup, and the
   cost of the first Incremental.frozen after the delta
   (materialize_seconds). *)

open Shacl
open Workload
module Engine = Provenance.Engine
module Incremental = Provenance.Incremental

let schema_of_entries entries =
  Schema.make_exn
    (List.map
       (fun (e : Bench_shapes.entry) ->
         { Schema.name = Rdf.Term.iri (Kg.ns ^ "bench/" ^ e.id);
           shape = e.shape;
           target = e.target })
       entries)

(* k distinct triples of [g], chosen by a partial Fisher-Yates shuffle
   under a fixed seed so runs are reproducible *)
let sample_triples ~seed ~k g =
  let arr = Array.of_list (Rdf.Graph.to_list g) in
  let n = Array.length arr in
  let k = min k n in
  let st = Random.State.make [| seed |] in
  for i = 0 to k - 1 do
    let j = i + Random.State.int st (n - i) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list (Array.sub arr 0 k)

let report_bytes r = Format.asprintf "%a" Validate.pp_report r

let same_state a b =
  String.equal
    (report_bytes (Incremental.report a))
    (report_bytes (Incremental.report b))
  && String.equal
       (Rdf.Turtle.to_string (Incremental.fragment a))
       (Rdf.Turtle.to_string (Incremental.fragment b))
  && Incremental.stats a = Incremental.stats b
  && Incremental.checks a = Incremental.checks b
  && Incremental.violations a = Incremental.violations b

(* Live major-heap words after a compaction, in MB. *)
let live_mb () =
  Gc.compact ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8))
  /. 1048576.

type row = {
  label : string;
  delta : int;       (* triples removed (and later re-added) per apply *)
  dirty : int;
  rechecked : int;
  t_inc : float;     (* one apply, min over cycles *)
  t_full : float;    (* validate + run from scratch, min over repeats *)
  t_frozen : float;  (* the first frozen after the delta, min over cycles *)
  identical : bool;
  identical_store : bool;
}

let run ~quick =
  Util.header "Incremental revalidation vs full recomputation";
  let individuals = if quick then 4000 else 15000 in
  let cycles = if quick then 3 else 5 in
  let g = Kg.generate ~seed:42 ~individuals in
  let triples = Rdf.Graph.cardinal g in
  let schema = schema_of_entries Bench_shapes.all in
  let requests = Engine.requests_of_schema schema in
  Printf.printf "graph: %d individuals, %d triples; %d shapes\n" individuals
    triples
    (List.length (Schema.defs schema));
  (* Build on a frozen copy, so the heap figure is the state's own and
     not the graph store's; the deltas below still start from [g]. *)
  let frozen = Rdf.Graph.freeze g in
  let cores = Domain.recommended_domain_count () in
  let live0 = live_mb () in
  let t_create_1, inc1 =
    Util.time (fun () -> Incremental.create ~jobs:1 ~schema frozen)
  in
  let state_mb = live_mb () -. live0 in
  let t_create_n, inc =
    Util.time (fun () -> Incremental.create ~jobs:cores ~schema frozen)
  in
  let identical_jobs = same_state inc1 inc in
  let s0 = Incremental.stats inc in
  Printf.printf
    "seeded incremental state in %s at -j 1, %s at -j %d (%d stored \
     pair(s), %d fragment triple(s), %.1f MB live%s)\n"
    (Format.asprintf "%a" Util.pp_seconds t_create_1)
    (Format.asprintf "%a" Util.pp_seconds t_create_n)
    cores s0.Incremental.pairs s0.Incremental.fragment_triples state_mb
    (if identical_jobs then "" else "; ** -j 1 and -j N states differ **");
  let sizes =
    [ "1 triple", 1; "10 triples", 10; "1% of graph", max 1 (triples / 100) ]
  in
  let rows =
    List.mapi
      (fun i (label, k) ->
        let removes = sample_triples ~seed:(1000 + i) ~k g in
        let delta = Rdf.Delta.make ~removes () in
        let undo = Rdf.Delta.make ~adds:removes () in
        (* from-scratch baseline on the post-delta graph; the graph is
           built outside the timer, so the baseline pays evaluation
           only *)
        let g' = Rdf.Delta.apply delta g in
        let t_full = ref infinity in
        let scratch_report = ref None and scratch_frag = ref None in
        for _ = 1 to cycles do
          Gc.full_major ();
          let t, (report, frag) =
            Util.time (fun () ->
                let report, _ = Engine.validate ~jobs:1 schema g' in
                let frag, _ = Engine.run ~schema ~jobs:1 g' requests in
                (report, frag))
          in
          if t < !t_full then t_full := t;
          scratch_report := Some report;
          scratch_frag := Some frag
        done;
        (* incremental: apply the delta, then revert it, so each cycle
           (and each later size) starts from the original graph; both
           directions count as applies, and the first cycle must
           reproduce the from-scratch answers byte-for-byte. *)
        let t_inc = ref infinity and t_frozen = ref infinity in
        let dirty = ref 0 and rechecked = ref 0 in
        let identical = ref true and identical_store = ref true in
        let store_against_scratch frozen =
          match Rdf.Graph.store frozen with
          | Some st ->
              Rdf.Store.equal st
                (Rdf.Store.of_triples (Array.of_list (Rdf.Graph.to_list g')))
          | None -> false
        in
        let check_against_scratch () =
          String.equal
            (report_bytes (Option.get !scratch_report))
            (report_bytes (Incremental.report inc))
          && String.equal
               (Rdf.Turtle.to_string (Option.get !scratch_frag))
               (Rdf.Turtle.to_string (Incremental.fragment inc))
        in
        for cycle = 1 to cycles do
          Gc.full_major ();
          let t, st = Util.time (fun () -> Incremental.apply inc delta) in
          if t < !t_inc then t_inc := t;
          dirty := st.Incremental.dirty;
          rechecked := st.Incremental.rechecked;
          (* the store for the post-delta graph, built on demand *)
          let t, frozen = Util.time (fun () -> Incremental.frozen inc) in
          if t < !t_frozen then t_frozen := t;
          if cycle = 1 then begin
            identical := check_against_scratch ();
            identical_store := store_against_scratch frozen
          end;
          Gc.full_major ();
          let t, _ = Util.time (fun () -> Incremental.apply inc undo) in
          if t < !t_inc then t_inc := t;
          (* build the restored graph's store untimed, so the next
             cycle's store is patched for exactly one delta *)
          ignore (Incremental.frozen inc : Rdf.Graph.t)
        done;
        let row =
          { label; delta = List.length removes; dirty = !dirty;
            rechecked = !rechecked; t_inc = !t_inc; t_full = !t_full;
            t_frozen = !t_frozen; identical = !identical;
            identical_store = !identical_store }
        in
        Printf.printf
          "%-12s incremental %s vs full %s  (%.1fx; %d dirty, %d \
           rechecked; store on demand %s%s%s)\n"
          row.label
          (Format.asprintf "%a" Util.pp_seconds row.t_inc)
          (Format.asprintf "%a" Util.pp_seconds row.t_full)
          (row.t_full /. row.t_inc) row.dirty row.rechecked
          (Format.asprintf "%a" Util.pp_seconds row.t_frozen)
          (if row.identical then "" else "; ** MISMATCH vs scratch **")
          (if row.identical_store then ""
           else "; ** STORE MISMATCH vs scratch **");
        row)
      sizes
  in
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let identical_store = List.for_all (fun r -> r.identical_store) rows in
  let materialize_seconds = (List.hd rows).t_frozen in
  let oc = open_out "BENCH_incremental.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"incremental revalidation vs full recomputation\",\n\
    \  \"workload\": \"Kg.generate ~seed:42 ~individuals:%d\",\n\
    \  \"triples\": %d,\n\
    \  \"shapes\": %d,\n\
    \  \"cores\": %d,\n\
    \  \"create_seconds_j1\": %.6f,\n\
    \  \"create_seconds_jcores\": %.6f,\n\
    \  \"state_live_mb\": %.1f,\n\
    \  \"identical_jobs\": %b,\n\
    \  \"materialize_seconds\": %.6f,\n\
    \  \"identical_store\": %b,\n\
    \  \"stored_pairs\": %d,\n\
    \  \"fragment_triples\": %d,\n\
    \  \"deltas\": [\n"
    individuals triples
    (List.length (Schema.defs schema))
    cores t_create_1 t_create_n state_mb identical_jobs materialize_seconds
    identical_store s0.Incremental.pairs
    s0.Incremental.fragment_triples;
  List.iteri
    (fun i r ->
      Printf.fprintf oc
        "    {\n\
        \      \"label\": %S,\n\
        \      \"delta_triples\": %d,\n\
        \      \"dirty_pairs\": %d,\n\
        \      \"rechecked\": %d,\n\
        \      \"incremental_seconds\": %.6f,\n\
        \      \"full_seconds\": %.6f,\n\
        \      \"speedup\": %.3f,\n\
        \      \"materialize_seconds\": %.6f,\n\
        \      \"identical\": %b,\n\
        \      \"identical_store\": %b\n\
        \    }%s\n"
        r.label r.delta r.dirty r.rechecked r.t_inc r.t_full
        (r.t_full /. r.t_inc) r.t_frozen r.identical r.identical_store
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"identical\": %b\n}\n" all_identical;
  close_out oc;
  Printf.printf "wrote BENCH_incremental.json%s%s\n"
    (if all_identical then "" else "  ** MISMATCH vs scratch **")
    (if identical_store then "" else "  ** STORE MISMATCH vs scratch **")
