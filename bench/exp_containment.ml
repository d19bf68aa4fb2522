(* Cross-shape containment lattice of the survey schema.

   Runs Analysis.Containment.lattice — the static containment analysis
   the [analyze] command reports — over the full 57-shape survey suite
   (Workload.Bench_shapes) and records in BENCH_containment.json the
   lattice it proves (edges, equivalence pairs and classes) and the
   time it takes.  The analysis is graph-independent, so no data graph
   is involved. *)

open Shacl
open Workload
module Containment = Analysis.Containment

let schema_of_entries entries =
  Schema.make_exn
    (List.map
       (fun (e : Bench_shapes.entry) ->
         { Schema.name = Rdf.Term.iri (Kg.ns ^ "bench/" ^ e.id);
           shape = e.shape;
           target = e.target })
       entries)

let run ~quick:_ =
  Util.header "Containment lattice (57-shape survey)";
  let entries = Bench_shapes.all in
  let schema = schema_of_entries entries in
  let t_lattice, lattice = Util.time (fun () -> Containment.lattice schema) in
  let edges = List.length lattice.edges in
  let equivalences =
    List.length
      (List.filter (fun (e : Containment.edge) -> e.equivalent) lattice.edges)
    / 2
  in
  let classes = List.length lattice.classes in
  Printf.printf
    "%d shapes; lattice: %d proven edge(s) (%d equivalence pair(s), %d \
     class(es)); proven in %s\n"
    (List.length entries) edges equivalences classes
    (Format.asprintf "%a" Util.pp_seconds t_lattice);
  let oc = open_out "BENCH_containment.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"cross-shape containment lattice\",\n\
    \  \"shapes\": %d,\n\
    \  \"lattice\": {\n\
    \    \"proven_edges\": %d,\n\
    \    \"equivalence_pairs\": %d,\n\
    \    \"equivalence_classes\": %d,\n\
    \    \"lattice_seconds\": %.6f\n\
    \  }\n\
     }\n"
    (List.length entries) edges equivalences classes t_lattice;
  close_out oc;
  print_endline "wrote BENCH_containment.json"
