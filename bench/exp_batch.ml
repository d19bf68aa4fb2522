(* Id-space path kernel: per-node vs batched fragment extraction.

   Runs the full 57-shape survey suite (Workload.Bench_shapes) over a
   generated Kg graph through Provenance.Engine.run twice — once with
   ~kernel:`Per_node (the term-space checker: every path evaluation
   anchored at one node, neighborhoods as persistent graphs) and once
   with the default ~kernel:`Batched (decide, then trace: the verdict
   pass decides each candidate and its row collector writes the
   neighborhoods as store rows; paths evaluated in the id-space kernel,
   memoized per worker).  Reports, and records in BENCH_batch.json:

   - fragment extraction per-node vs batched at -j 1 (interleaved
     min-of-pairs);
   - whether the fragments are identical, byte-for-byte on the Turtle
     serialization and as graph equality.  They must be: the kernel is
     a pure evaluation-strategy change. *)

open Shacl
open Workload
module Engine = Provenance.Engine

let schema_of_entries entries =
  Schema.make_exn
    (List.map
       (fun (e : Bench_shapes.entry) ->
         { Schema.name = Rdf.Term.iri (Kg.ns ^ "bench/" ^ e.id);
           shape = e.shape;
           target = e.target })
       entries)

(* Interleaved min-of-N pairs, as in exp_containment: ambient load on
   shared hardware easily shifts any single run by more than the effect
   under test, so each repetition times the two configurations back to
   back and the minimum — the least-disturbed run — represents each
   side. *)
let min_of_pairs ~pairs f_a f_b =
  ignore (f_a ());
  ignore (f_b ());
  let best_a = ref infinity and best_b = ref infinity in
  let last_a = ref None and last_b = ref None in
  for _ = 1 to pairs do
    Gc.full_major ();
    let t, r = Util.time f_a in
    if t < !best_a then best_a := t;
    last_a := Some r;
    Gc.full_major ();
    let t, r = Util.time f_b in
    if t < !best_b then best_b := t;
    last_b := Some r
  done;
  (!best_a, Option.get !last_a, !best_b, Option.get !last_b)

let run ~quick =
  Util.header
    "Id-space path kernel: per-node vs batched fragments (57-shape survey)";
  let individuals = if quick then 6000 else 20000 in
  (* Freeze once, outside the timed region: both kernels run over the
     same interned store, so the comparison isolates the evaluation
     strategy rather than re-measuring dictionary construction. *)
  let g = Rdf.Graph.freeze (Kg.generate ~seed:42 ~individuals) in
  let triples = Rdf.Graph.cardinal g in
  let entries = Bench_shapes.all in
  let schema = schema_of_entries entries in
  Printf.printf "graph: %d individuals, %d triples; %d shapes\n" individuals
    triples (List.length entries);
  (* Fragment extraction: per-node vs batched, -j 1. *)
  let requests = Engine.requests_of_schema schema in
  let t_frag_per, (frag_per, _), t_frag_batch, (frag_batch, _) =
    min_of_pairs ~pairs:4
      (fun () -> Engine.run ~schema ~jobs:1 ~kernel:`Per_node g requests)
      (fun () -> Engine.run ~schema ~jobs:1 ~kernel:`Batched g requests)
  in
  let fragments_identical =
    Rdf.Graph.equal frag_per frag_batch
    && String.equal
         (Rdf.Turtle.to_string frag_per)
         (Rdf.Turtle.to_string frag_batch)
  in
  Printf.printf
    "fragment per-node: %s; batched: %s  (%.2fx; fragments identical: %b)\n"
    (Format.asprintf "%a" Util.pp_seconds t_frag_per)
    (Format.asprintf "%a" Util.pp_seconds t_frag_batch)
    (t_frag_per /. t_frag_batch)
    fragments_identical;
  let oc = open_out "BENCH_batch.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"id-space path kernel: per-node vs batched fragment extraction\",\n\
    \  \"workload\": \"Kg.generate ~seed:42 ~individuals:%d\",\n\
    \  \"triples\": %d,\n\
    \  \"shapes\": %d,\n\
    \  \"fragment\": {\n\
    \    \"per_node_seconds\": %.6f,\n\
    \    \"batched_seconds\": %.6f,\n\
    \    \"speedup\": %.3f,\n\
    \    \"fragments_identical\": %b\n\
    \  },\n\
    \  \"identical\": %b\n\
     }\n"
    individuals triples (List.length entries) t_frag_per t_frag_batch
    (t_frag_per /. t_frag_batch)
    fragments_identical fragments_identical;
  close_out oc;
  Printf.printf "wrote BENCH_batch.json%s\n"
    (if fragments_identical then "" else "  ** MISMATCH per-node vs batched **")
