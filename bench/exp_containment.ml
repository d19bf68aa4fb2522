(* Cross-shape containment lattice of the survey schema.

   Runs Plan.make — the static containment analysis the [analyze]
   command reports — over the full 57-shape survey suite
   (Workload.Bench_shapes) and records in BENCH_containment.json the
   lattice it proves (edges, equivalence classes, skippable shapes,
   levels, shared paths) and the planning time.  The analysis is
   graph-independent, so no data graph is involved. *)

open Shacl
open Workload
module Plan = Provenance.Plan

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
  let t_plan, plan = Util.time (fun () -> Plan.make schema) in
  let edges = Plan.(List.length plan.edges) in
  let equivalences =
    Plan.(List.length (List.filter (fun e -> e.equivalent) plan.edges)) / 2
  in
  let classes = List.length (Plan.equivalence_classes plan) in
  let skippable = Plan.skippable plan in
  let levels = Plan.n_levels plan in
  let shared_paths = Plan.(List.length plan.shared_paths) in
  Printf.printf
    "%d shapes; lattice: %d proven edge(s) (%d equivalence pair(s), %d \
     class(es)), %d skippable shape(s), %d level(s), %d shared path(s); \
     planned in %s\n"
    (List.length entries) edges equivalences classes skippable levels
    shared_paths
    (Format.asprintf "%a" Util.pp_seconds t_plan);
  let oc = open_out "BENCH_containment.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"cross-shape containment lattice\",\n\
    \  \"shapes\": %d,\n\
    \  \"lattice\": {\n\
    \    \"proven_edges\": %d,\n\
    \    \"equivalence_pairs\": %d,\n\
    \    \"equivalence_classes\": %d,\n\
    \    \"skippable_shapes\": %d,\n\
    \    \"levels\": %d,\n\
    \    \"shared_paths\": %d,\n\
    \    \"planning_seconds\": %.6f\n\
    \  }\n\
     }\n"
    (List.length entries) edges equivalences classes skippable levels
    shared_paths t_plan;
  close_out oc;
  print_endline "wrote BENCH_containment.json"
