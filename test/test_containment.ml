(* Cross-shape containment analysis and the schema-level planner.

   - Unit: the structural ⊑ rules (counting, conjunction weakening,
     pair-constraint relaxation), equivalence, plan structure (levels,
     transitive reduction of the skip DAG, equivalence classes), and
     the path memo's counter discipline.
   - Properties: soundness of [subsumes] against the conformance
     checker (a proven [a ⊑ b] is never contradicted on any random
     graph), and the syntactic core never proves more than the full
     test. *)

open Rdf
open Shacl
open Analysis
open Provenance

let ex local = "http://example.org/" ^ local
let ext local = Term.iri (ex local)
let p = Rdf.Path.Prop Tgen.prop_p
let q = Rdf.Path.Prop Tgen.prop_q
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let empty = Schema.empty
let sub a b = Containment.subsumes empty a b

(* ---------------- subsumption rules -------------------------------- *)

let test_rules () =
  check "ge weakens count" true
    (sub (Shape.Ge (2, p, Shape.Top)) (Shape.Ge (1, p, Shape.Top)));
  check "ge does not strengthen" false
    (sub (Shape.Ge (1, p, Shape.Top)) (Shape.Ge (2, p, Shape.Top)));
  check "le weakens bound" true
    (sub (Shape.Le (1, p, Shape.Top)) (Shape.Le (2, p, Shape.Top)));
  check "conjunction drops conjuncts" true
    (sub
       (Shape.And [ Shape.Ge (1, p, Shape.Top); Shape.Ge (1, q, Shape.Top) ])
       (Shape.Ge (1, q, Shape.Top)));
  check "conjunct order irrelevant" true
    (sub
       (Shape.And [ Shape.Ge (1, p, Shape.Top); Shape.Ge (1, q, Shape.Top) ])
       (Shape.And [ Shape.Ge (1, q, Shape.Top); Shape.Ge (1, p, Shape.Top) ]));
  check "less-than relaxes to less-than-eq" true
    (sub (Shape.Less_than (p, Tgen.prop_q)) (Shape.Less_than_eq (p, Tgen.prop_q)));
  check "less-than-eq does not tighten" false
    (sub (Shape.Less_than_eq (p, Tgen.prop_q)) (Shape.Less_than (p, Tgen.prop_q)));
  check "different paths unrelated" false
    (sub (Shape.Ge (1, p, Shape.Top)) (Shape.Ge (1, q, Shape.Top)));
  check "bottom below everything" true
    (sub Shape.Bottom (Shape.Has_value (ext "n")));
  check "everything below top" true (sub (Shape.Has_value (ext "n")) Shape.Top)

let test_equivalent () =
  let a = Shape.Ge (1, p, Shape.Top) in
  let b =
    Shape.Ge (1, Containment.norm_path (Rdf.Path.Inv (Rdf.Path.Inv p)), Shape.Top)
  in
  check "same constraint both ways" true (Containment.equivalent empty a b);
  check "strict containment is not equivalence" false
    (Containment.equivalent empty (Shape.Ge (2, p, Shape.Top)) a)

let test_node_test_implication () =
  check "min-inclusive relaxes" true
    (Containment.test_implies
       (Node_test.Min_inclusive (Literal.int 5))
       (Node_test.Min_inclusive (Literal.int 3)));
  check "min-inclusive does not tighten" false
    (Containment.test_implies
       (Node_test.Min_inclusive (Literal.int 3))
       (Node_test.Min_inclusive (Literal.int 5)));
  check "min-length relaxes" true
    (Containment.test_implies (Node_test.Min_length 4) (Node_test.Min_length 2))

(* ---------------- plan structure ----------------------------------- *)

(* A containment chain C ⊑ B ⊑ A: the planner must schedule C first
   and, after transitive reduction, keep only the direct predecessor
   on each skip list (A skips via B alone — B already conforms
   wherever C does). *)
let chain_schema =
  Schema.def_list
    [ ex "A", Shape.Ge (1, p, Shape.Top), Shape.Has_value (ext "t");
      ex "B", Shape.Ge (2, p, Shape.Top), Shape.Has_value (ext "t");
      ex "C", Shape.Ge (3, p, Shape.Top), Shape.Has_value (ext "t") ]

let test_plan_chain () =
  let plan = Plan.make chain_schema in
  check_int "three defs" 3 (Plan.n_defs plan);
  check_int "three levels" 3 (Plan.n_levels plan);
  (* defs are in Schema.defs order: A = 0, B = 1, C = 2 *)
  check_int "C runs first" 0 plan.Plan.levels.(2);
  check_int "B second" 1 plan.Plan.levels.(1);
  check_int "A last" 2 plan.Plan.levels.(0);
  check "C skips via nothing" true (plan.Plan.skip_preds.(2) = []);
  check "B skips via C" true (plan.Plan.skip_preds.(1) = [ 2 ]);
  check "A skips via B only (transitive reduction)" true
    (plan.Plan.skip_preds.(0) = [ 1 ]);
  (* the full relation still records the transitive edge *)
  check "C [= A proven" true
    (List.exists
       (fun (e : Plan.edge) -> e.sub = 2 && e.sup = 0)
       plan.Plan.edges)

let test_plan_equivalence () =
  let schema =
    Schema.def_list
      [ ex "A", Shape.Ge (1, p, Shape.Top), Shape.Has_value (ext "t");
        ex "Acopy", Shape.Ge (1, p, Shape.Top), Shape.Has_value (ext "t") ]
  in
  let plan = Plan.make schema in
  check "one equivalence class" true
    (Plan.equivalence_classes plan = [ [ 0; 1 ] ]);
  check_int "two levels" 2 (Plan.n_levels plan);
  check "copy skips via representative" true (plan.Plan.skip_preds.(1) = [ 0 ]);
  check "representative skips via nothing" true (plan.Plan.skip_preds.(0) = [])

let test_plan_shared_paths () =
  let plan = Plan.make chain_schema in
  (* all three defs constrain the same path after normalization *)
  check "p shared by 3 defs" true
    (List.exists
       (fun (e, c) -> Rdf.Path.equal e p && c = 3)
       plan.Plan.shared_paths)

(* ---------------- path memo ---------------------------------------- *)

let paper_graph =
  let t = Vocab.Rdf.type_ in
  let author = Iri.of_string (ex "author") in
  Graph.of_list
    [ Triple.make (ext "p1") t (ext "Paper");
      Triple.make (ext "p1") author (ext "alice");
      Triple.make (ext "p1") author (ext "bob");
      Triple.make (ext "p2") t (ext "Paper");
      Triple.make (ext "p2") author (ext "carol");
      Triple.make (ext "p3") t (ext "Paper") ]

let test_path_memo () =
  let memo = Path_memo.create () in
  let budget = Runtime.Budget.unlimited in
  let c = Counters.create () in
  let g = paper_graph in
  let compound =
    Rdf.Path.Seq (Rdf.Path.Prop Vocab.Rdf.type_, Rdf.Path.Opt p)
  in
  let r1 = Path_memo.eval ~counters:c memo budget g compound (ext "p1") in
  let r2 = Path_memo.eval ~counters:c memo budget g compound (ext "p1") in
  check "memoized result stable" true (Term.Set.equal r1 r2);
  check "memoized result correct" true
    (Term.Set.equal r1 (Rdf.Path.eval g compound (ext "p1")));
  check_int "two lookups" 2 c.Counters.path_memo_lookups;
  check_int "one hit" 1 c.Counters.path_memo_hits;
  check_int "one miss" 1 c.Counters.path_memo_misses;
  check_int "one real eval" 1 c.Counters.path_evals;
  (* a structurally equal but physically distinct path shares the table *)
  let copy = Rdf.Path.Seq (Rdf.Path.Prop Vocab.Rdf.type_, Rdf.Path.Opt p) in
  let r3 = Path_memo.eval ~counters:c memo budget g copy (ext "p1") in
  check "alias hits the shared table" true
    (Term.Set.equal r1 r3 && c.Counters.path_memo_hits = 2);
  (* bare property steps bypass the memo entirely *)
  let _ = Path_memo.eval ~counters:c memo budget g p (ext "p1") in
  check_int "trivial path adds no lookup" 3 c.Counters.path_memo_lookups;
  check_int "trivial path still counts an eval" 2 c.Counters.path_evals

(* ---------------- properties --------------------------------------- *)

(* Soundness: a proven containment is never contradicted by the
   conformance checker on any graph. *)
let prop_subsumes_sound =
  QCheck.Test.make ~count:500
    ~name:"subsumes never contradicts the conformance checker"
    QCheck.(pair (pair Tgen.arbitrary_shape Tgen.arbitrary_shape)
              Tgen.arbitrary_graph)
    (fun ((a, b), g) ->
      (not (Containment.subsumes empty a b))
      || Term.Set.for_all
           (fun v ->
             (not (Conformance.conforms empty g v a))
             || Conformance.conforms empty g v b)
           (Graph.nodes g))

(* The planner's cheap test proves a subset of the full test's edges. *)
let prop_syntactic_weaker =
  QCheck.Test.make ~count:500
    ~name:"subsumes_syntactic implies subsumes_normalized"
    QCheck.(pair Tgen.arbitrary_shape Tgen.arbitrary_shape)
    (fun (a, b) ->
      let na = Containment.normalize empty a
      and nb = Containment.normalize empty b in
      (not (Containment.subsumes_syntactic na nb))
      || Containment.subsumes_normalized na nb)

let suite =
  [ Alcotest.test_case "subsumption rules" `Quick test_rules;
    Alcotest.test_case "equivalence" `Quick test_equivalent;
    Alcotest.test_case "node-test implication" `Quick test_node_test_implication;
    Alcotest.test_case "plan: chain levels and reduction" `Quick test_plan_chain;
    Alcotest.test_case "plan: equivalence class" `Quick test_plan_equivalence;
    Alcotest.test_case "plan: shared paths" `Quick test_plan_shared_paths;
    Alcotest.test_case "path memo counters and sharing" `Quick test_path_memo ]

let props =
  [ prop_subsumes_sound; prop_syntactic_weaker ]
