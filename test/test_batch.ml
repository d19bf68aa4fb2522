(* The set-at-a-time batched path kernel (Rdf.Path.eval_batch and
   Rdf.Path.Batch) against the per-node evaluator, and the engine layers
   that ride on it.

   - Differential: eval_batch over a source set produces, source by
     source, exactly the per-node eval results — and charges the step /
     lookup hooks the same {e total} (the kernel's memo replays recorded
     charges, so sharing must not change fuel accounting).  Same for the
     inverse direction and whole-set tracing.
   - Engine: ~kernel:`Batched is byte-identical to ~kernel:`Per_node on
     both the fragment (Turtle serialization) and the validation
     report, and the batched output does not depend on -j.
   - Row checker: id-space rows decode to the term checker's
     neighborhood, with the same verdicts and counters.

   Graphs here extend the shared vocabulary with blank nodes and a
   deliberate closed property walk, so [Star] saturates over nontrivial
   strongly connected components and dense-relation compaction has
   something to detect. *)

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

(* One batched pass vs per-node evaluation: same rows, same total
   charge.  [batch] runs the set-at-a-time side, [per_node] one
   source; both get counting hooks. *)
let check_batch_vs_per_node ~batch ~per_node (g, e, srcs) =
  let g, st = frozen g in
  let ids = source_ids st srcs in
  let sources = Bitset.of_list (Store.n_terms st) ids in
  let bsteps = ref 0 and blookups = ref 0 in
  let rel =
    batch
      ?step:(Some (fun () -> incr bsteps))
      ?lookup:(Some (fun () -> incr blookups))
      st e ~sources
  in
  let psteps = ref 0 and plookups = ref 0 in
  List.for_all
    (fun a ->
      let expect =
        encode_set st
          (per_node
             ?step:(Some (fun () -> incr psteps))
             ?lookup:(Some (fun () -> incr plookups))
             g e (Store.term st a))
      in
      match Relation.row rel a with
      | None -> QCheck.Test.fail_reportf "source %d missing from relation" a
      | Some row ->
          arrays_equal expect row
          || QCheck.Test.fail_reportf "rows differ at source %d" a)
    ids
  && (Relation.n_rows rel = List.length ids
     || QCheck.Test.fail_report "relation evaluated extra sources")
  && ((!bsteps, !blookups) = (!psteps, !plookups)
     || QCheck.Test.fail_reportf
          "charge differs: batched %d step(s) / %d lookup(s), per-node %d / %d"
          !bsteps !blookups !psteps !plookups)

let prop_eval_batch =
  QCheck.Test.make
    ~name:"eval_batch ≡ per-node eval (rows and total charge)" ~count:500
    arbitrary_batch_case
    (check_batch_vs_per_node ~batch:Path.eval_batch
       ~per_node:(fun ?step ?lookup g e a -> Path.eval ?step ?lookup g e a))

let prop_eval_batch_inv =
  QCheck.Test.make
    ~name:"eval_batch_inv ≡ per-node eval_inv (rows and total charge)"
    ~count:300 arbitrary_batch_case
    (check_batch_vs_per_node ~batch:Path.eval_batch_inv
       ~per_node:(fun ?step ?lookup g e a -> Path.eval_inv ?step ?lookup g e a))

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
      let rep_per, _ = Engine.validate ~kernel:`Per_node schema g in
      let rep_batch, _ = Engine.validate ~kernel:`Batched schema g in
      String.equal (Turtle.to_string frag_per) (Turtle.to_string frag_batch)
      && Graph.equal frag_per frag_batch
      && String.equal (report_bytes rep_per) (report_bytes rep_batch))

let prop_engine_jobs_deterministic =
  QCheck.Test.make
    ~name:"batched kernel output independent of -j (1/2/4)" ~count:60
    (QCheck.pair (QCheck.make gen_cyc_graph
                    ~print:(fun g -> Format.asprintf "%a" Graph.pp g))
       Test_engine.arbitrary_schema)
    (fun (g, schema) ->
      let requests = Engine.requests_of_schema schema in
      let frag1, _ = Engine.run ~schema ~jobs:1 ~kernel:`Batched g requests in
      let rep1, _ = Engine.validate ~jobs:1 ~kernel:`Batched schema g in
      List.for_all
        (fun jobs ->
          let fragj, _ =
            Engine.run ~schema ~jobs ~kernel:`Batched g requests
          in
          let repj, _ = Engine.validate ~jobs ~kernel:`Batched schema g in
          String.equal (Turtle.to_string frag1) (Turtle.to_string fragj)
          && String.equal (report_bytes rep1) (report_bytes repj))
        [ 2; 4 ])

(* --- row checker: id-space rows decode to the term-space graph ----- *)

let prop_row_checker =
  QCheck.Test.make
    ~name:"row_checker ≡ checker (verdict, rows, counters)" ~count:200
    (QCheck.pair (QCheck.make gen_cyc_graph
                    ~print:(fun g -> Format.asprintf "%a" Graph.pp g))
       Tgen.arbitrary_shape)
    (fun (g, phi) ->
      let g, st = frozen g in
      let c_term = Shacl.Counters.create () in
      let c_rows = Shacl.Counters.create () in
      (* the id core memoizes [[E]](v) like a Path_memo-backed checker,
         so that is the accounting oracle; the row checker gets its own
         table too — its term-core fallback for focus nodes the store
         never interned must account the same way *)
      let check_term =
        Neighborhood.checker ~counters:c_term
          ~path_memo:(Shacl.Path_memo.create ()) g phi
      in
      let check_rows =
        Neighborhood.row_checker ~counters:c_rows
          ~path_memo:(Shacl.Path_memo.create ()) g phi
      in
      List.for_all
        (fun v ->
          let verdict_t, nb_t = check_term v in
          let verdict_r, rows = check_rows v in
          let nb_r =
            Array.fold_left
              (fun acc r -> Graph.add_triple (Store.row_triple st r) acc)
              Graph.empty rows
          in
          verdict_t = verdict_r && Graph.equal nb_t nb_r)
        cyc_nodes
      && ((c_term.Shacl.Counters.memo_lookups, c_term.memo_hits,
           c_term.memo_misses, c_term.path_evals, c_term.path_memo_lookups,
           c_term.path_memo_hits, c_term.path_memo_misses)
          = (c_rows.Shacl.Counters.memo_lookups, c_rows.memo_hits,
             c_rows.memo_misses, c_rows.path_evals, c_rows.path_memo_lookups,
             c_rows.path_memo_hits, c_rows.path_memo_misses)
         || QCheck.Test.fail_reportf
              "counters differ: term (%d,%d,%d,%d,%d,%d,%d) rows \
               (%d,%d,%d,%d,%d,%d,%d)"
              c_term.Shacl.Counters.memo_lookups c_term.memo_hits
              c_term.memo_misses c_term.path_evals c_term.path_memo_lookups
              c_term.path_memo_hits c_term.path_memo_misses
              c_rows.Shacl.Counters.memo_lookups c_rows.memo_hits
              c_rows.memo_misses c_rows.path_evals c_rows.path_memo_lookups
              c_rows.path_memo_hits c_rows.path_memo_misses))

let props =
  [ prop_eval_batch;
    prop_eval_batch_inv;
    prop_trace;
    prop_engine_kernel_identical;
    prop_engine_jobs_deterministic;
    prop_row_checker ]

let suite = []
