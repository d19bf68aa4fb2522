(* The id-space path kernel (Rdf.Path.Batch) against the term-space
   evaluator (Rdf.Path.eval), and the engine layers that ride on it.

   - Differential: Batch.eval over a set of sources in one context
     produces, source by source, exactly the term-space eval results —
     and charges the step / lookup hooks the same {e total} (the
     kernel's memo replays recorded charges, so sharing across sources
     must not change fuel accounting).  Same for the inverse direction
     and whole-set tracing.
   - Engine: ~kernel:`Batched fragments are byte-identical to
     ~kernel:`Per_node ones, the validation report is byte-identical to
     the sequential validator's, and neither depends on -j.
   - Row collector: the verdict pass decides as [Conformance] does, and
     the rows its collector emits decode to the naive neighborhood.

   Graphs here extend the shared vocabulary with blank nodes and a
   deliberate closed property walk, so [Star] saturates over nontrivial
   strongly connected components. *)

open Rdf
open Provenance
module Path = Rdf.Path

let bnodes = [ Term.blank "u"; Term.blank "v"; Term.blank "w" ]
let cyc_nodes = Tgen.nodes @ bnodes
let cyc_objects = cyc_nodes @ Tgen.literals

let gen_cyc_triple =
  QCheck.Gen.map3
    (fun s p o -> Triple.make s p o)
    (QCheck.Gen.oneofl cyc_nodes) Tgen.gen_prop (QCheck.Gen.oneofl cyc_objects)

(* A closed p-walk through a shuffled node prefix: n0 -p-> n1 -p-> …
   -p-> n0.  Grafted into about half the graphs so Star both saturates
   on cycles and terminates on plain DAG-ish graphs. *)
let gen_cycle =
  let open QCheck.Gen in
  oneofl Tgen.props >>= fun p ->
  shuffle_l cyc_nodes >>= fun shuffled ->
  int_range 2 4 >>= fun k ->
  let ns = List.filteri (fun i _ -> i < k) shuffled in
  let rec edges = function
    | x :: (y :: _ as rest) -> Triple.make x p y :: edges rest
    | [ last ] -> [ Triple.make last p (List.hd ns) ]
    | [] -> []
  in
  return (edges ns)

let gen_cyc_graph =
  let open QCheck.Gen in
  map2
    (fun triples cycle -> Graph.of_list (cycle @ triples))
    (list_size (int_range 0 25) gen_cyc_triple)
    (frequency [ 1, gen_cycle; 1, return [] ])

(* Source sets include the empty and singleton cases naturally
   (list_size starts at 0), plus terms that may not occur in the
   graph — the store simply has no id for those. *)
let gen_sources = QCheck.Gen.(list_size (int_range 0 4) (oneofl cyc_nodes))

let arbitrary_batch_case =
  QCheck.make
    QCheck.Gen.(triple gen_cyc_graph (Tgen.gen_path 2) gen_sources)
    ~print:(fun (g, e, srcs) ->
      Format.asprintf "graph:@.%a@.path: %s@.sources: %s" Graph.pp g
        (Path.to_string e)
        (String.concat ", " (List.map Term.to_string srcs)))

(* An empty graph freezes without a store; the kernel needs one, so
   those (trivial) cases are discarded. *)
let frozen g =
  let g = Graph.freeze g in
  QCheck.assume (Graph.store g <> None);
  (g, Option.get (Graph.store g))

(* ids ascend with terms, so folding a Term.Set yields a sorted array *)
let encode_set st s =
  let out =
    Term.Set.fold
      (fun x acc ->
        match Store.id st x with Some i -> i :: acc | None -> acc)
      s []
  in
  Array.of_list (List.rev out)

let source_ids st srcs =
  List.filter_map (Store.id st) srcs |> List.sort_uniq compare

let arrays_equal (a : int array) b =
  Array.length a = Array.length b
  &&
  (let ok = ref true in
   Array.iteri (fun i x -> if x <> b.(i) then ok := false) a;
   !ok)

(* Per-source kernel evaluations in one shared context vs the
   term-space evaluator: same targets, same total charge.  [kernel]
   runs one source in the kernel, [term] one source in term space;
   both get counting hooks. *)
let check_kernel_vs_term ~kernel ~term (g, e, srcs) =
  let g, st = frozen g in
  let ids = source_ids st srcs in
  let ksteps = ref 0 and klookups = ref 0 in
  let ctx =
    Path.Batch.create
      ~step:(fun () -> incr ksteps)
      ~lookup:(fun () -> incr klookups)
      st
  in
  let tsteps = ref 0 and tlookups = ref 0 in
  List.for_all
    (fun a ->
      let expect =
        encode_set st
          (term
             ~step:(fun () -> incr tsteps)
             ~lookup:(fun () -> incr tlookups)
             g e (Store.term st a))
      in
      arrays_equal expect (kernel ctx e a)
      || QCheck.Test.fail_reportf "targets differ at source %d" a)
    ids
  && ((!ksteps, !klookups) = (!tsteps, !tlookups)
     || QCheck.Test.fail_reportf
          "charge differs: kernel %d step(s) / %d lookup(s), eval %d / %d"
          !ksteps !klookups !tsteps !tlookups)

let prop_batch_eval =
  QCheck.Test.make
    ~name:"Batch.eval ≡ eval per source (targets and total charge)"
    ~count:500 arbitrary_batch_case
    (check_kernel_vs_term ~kernel:Path.Batch.eval
       ~term:(fun ~step ~lookup g e a -> Path.eval ~step ~lookup g e a))

let prop_batch_eval_inv =
  QCheck.Test.make
    ~name:"Batch.eval_inv ≡ eval_inv per source (targets and total charge)"
    ~count:300 arbitrary_batch_case
    (check_kernel_vs_term ~kernel:Path.Batch.eval_inv
       ~term:(fun ~step ~lookup g e a -> Path.eval_inv ~step ~lookup g e a))

(* Whole-set tracing: the id-space rows decode to exactly the term-space
   trace_set graph. *)
let prop_trace =
  QCheck.Test.make ~name:"Batch.trace ≡ trace_set" ~count:300
    (QCheck.pair arbitrary_batch_case
       (QCheck.make gen_sources
          ~print:(fun l -> String.concat ", " (List.map Term.to_string l))))
    (fun ((g, e, srcs), tgt_terms) ->
      let g, st = frozen g in
      let sources = Array.of_list (source_ids st srcs) in
      let targets = Array.of_list (source_ids st tgt_terms) in
      let ctx = Path.Batch.create st in
      let rows = Path.Batch.trace ctx e ~sources ~targets in
      let traced =
        Array.fold_left
          (fun acc r -> Graph.add_triple (Store.row_triple st r) acc)
          Graph.empty rows
      in
      let expect =
        Path.trace_set g e
          ~sources:
            (Term.Set.of_list (Array.to_list (Array.map (Store.term st) sources)))
          ~targets:
            (Term.Set.of_list (Array.to_list (Array.map (Store.term st) targets)))
      in
      Graph.equal traced expect)

(* --- engine: batched kernel is invisible in the output ------------- *)

let report_bytes r = Format.asprintf "%a" Shacl.Validate.pp_report r

(* The report half compares the engine against the sequential
   validator: validation has one evaluation strategy. *)
let prop_engine_kernel_identical =
  QCheck.Test.make
    ~name:"Engine `Batched ≡ `Per_node (fragment and report bytes)"
    ~count:100
    (QCheck.pair (QCheck.make gen_cyc_graph
                    ~print:(fun g -> Format.asprintf "%a" Graph.pp g))
       Test_engine.arbitrary_schema)
    (fun (g, schema) ->
      let requests = Engine.requests_of_schema schema in
      let frag_per, _ = Engine.run ~schema ~kernel:`Per_node g requests in
      let frag_batch, _ = Engine.run ~schema ~kernel:`Batched g requests in
      let rep_engine, _ = Engine.validate schema g in
      let rep_seq = Shacl.Validate.validate schema g in
      String.equal (Turtle.to_string frag_per) (Turtle.to_string frag_batch)
      && Graph.equal frag_per frag_batch
      && String.equal (report_bytes rep_engine) (report_bytes rep_seq))

let prop_engine_jobs_deterministic =
  QCheck.Test.make
    ~name:"batched kernel output independent of -j (1/2/4)" ~count:60
    (QCheck.pair (QCheck.make gen_cyc_graph
                    ~print:(fun g -> Format.asprintf "%a" Graph.pp g))
       Test_engine.arbitrary_schema)
    (fun (g, schema) ->
      let requests = Engine.requests_of_schema schema in
      let frag1, _ = Engine.run ~schema ~jobs:1 ~kernel:`Batched g requests in
      let rep1, _ = Engine.validate ~jobs:1 schema g in
      List.for_all
        (fun jobs ->
          let fragj, _ =
            Engine.run ~schema ~jobs ~kernel:`Batched g requests
          in
          let repj, _ = Engine.validate ~jobs schema g in
          String.equal (Turtle.to_string frag1) (Turtle.to_string fragj)
          && String.equal (report_bytes rep1) (report_bytes repj))
        [ 2; 4 ])

(* --- row collector: id-space rows decode to the oracle's graph ------ *)

(* The rows [collect] emits for one node, decoded and added to [acc]
   (nothing for a node the verdict function rejects or never interned). *)
let collected st (v : Neighborhood.verdicts) x acc =
  match Store.id st x with
  | Some i when v.of_id i ->
      let acc = ref acc in
      v.collect i (fun r -> acc := Graph.add_triple (Store.row_triple st r) !acc);
      !acc
  | _ -> acc

(* Verdicts against [Conformance], decoded rows against the naive
   Table 2 neighborhood [Neighborhood.b]: node by node, each from a
   fresh verdict function, and over all nodes through one shared
   function, whose collections skip the pairs an earlier node reached
   and so must union to the oracle's neighborhoods. *)
let prop_collector =
  QCheck.Test.make
    ~name:"collector ≡ Conformance and b (verdict, rows)"
    ~count:200
    (QCheck.pair (QCheck.make gen_cyc_graph
                    ~print:(fun g -> Format.asprintf "%a" Graph.pp g))
       Tgen.arbitrary_shape)
    (fun (g, phi) ->
      let g, st = frozen g in
      let each = Neighborhood.decider st in
      let shared = Neighborhood.verdicts (Neighborhood.decider st) phi in
      List.for_all
        (fun x ->
          let v = Neighborhood.verdicts each phi in
          let verdict = v.of_term x in
          let nb = collected st v x Graph.empty in
          let oracle_verdict =
            Shacl.Conformance.conforms Shacl.Schema.empty g x phi
          in
          let oracle_nb = Neighborhood.b g x phi in
          (verdict = oracle_verdict
           || QCheck.Test.fail_reportf "verdict at %a: pass %b, oracle %b"
                Term.pp x verdict oracle_verdict)
          && (Graph.equal nb oracle_nb
             || QCheck.Test.fail_reportf
                  "neighborhood at %a:@.rows:@.%a@.oracle:@.%a" Term.pp x
                  Graph.pp nb Graph.pp oracle_nb))
        cyc_nodes
      &&
      let union =
        List.fold_left (fun acc x -> collected st shared x acc) Graph.empty
          cyc_nodes
      in
      let oracle =
        List.fold_left
          (fun acc x -> Graph.union acc (Neighborhood.b g x phi))
          Graph.empty cyc_nodes
      in
      Graph.equal union oracle
      || QCheck.Test.fail_reportf "shared collection:@.%a@.oracle:@.%a"
           Graph.pp union Graph.pp oracle)

let props =
  [ prop_batch_eval;
    prop_batch_eval_inv;
    prop_trace;
    prop_engine_kernel_identical;
    prop_engine_jobs_deterministic;
    prop_collector ]

let suite = []
