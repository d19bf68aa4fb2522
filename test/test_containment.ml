(* Cross-shape containment analysis and the schema's lattice.

   - Unit: the structural ⊑ rules (counting, conjunction weakening,
     pair-constraint relaxation), equivalence, and the lattice (every
     proven edge, equivalence classes).
   - Properties: soundness of [subsumes] against the conformance
     checker (a proven [a ⊑ b] is never contradicted on any random
     graph), and the syntactic core never proves more than the full
     test. *)

open Rdf
open Shacl
open Analysis

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

(* ---------------- the lattice -------------------------------------- *)

(* A containment chain C ⊑ B ⊑ A: the lattice records every proven
   edge, the transitive C ⊑ A included, and no equivalence. *)
let chain_schema =
  Schema.def_list
    [ ex "A", Shape.Ge (1, p, Shape.Top), Shape.Has_value (ext "t");
      ex "B", Shape.Ge (2, p, Shape.Top), Shape.Has_value (ext "t");
      ex "C", Shape.Ge (3, p, Shape.Top), Shape.Has_value (ext "t") ]

let test_lattice_chain () =
  let l = Containment.lattice chain_schema in
  check_int "three defs" 3 (Array.length l.defs);
  (* defs are in Schema.defs order: A = 0, B = 1, C = 2 *)
  check "edges B [= A, C [= A, C [= B" true
    (List.map (fun (e : Containment.edge) -> e.sub, e.sup, e.equivalent)
       l.edges
    = [ 1, 0, false; 2, 0, false; 2, 1, false ]);
  check "no equivalence class" true (l.classes = [])

let test_lattice_equivalence () =
  let schema =
    Schema.def_list
      [ ex "A", Shape.Ge (1, p, Shape.Top), Shape.Has_value (ext "t");
        ex "B", Shape.Ge (2, p, Shape.Top), Shape.Has_value (ext "t");
        ex "Acopy", Shape.Ge (1, p, Shape.Top), Shape.Has_value (ext "t") ]
  in
  let l = Containment.lattice schema in
  check "one equivalence class" true (l.classes = [ [ 0; 2 ] ]);
  check "the mutual edges are marked equivalent" true
    (List.for_all
       (fun (e : Containment.edge) ->
         e.equivalent = ((e.sub = 0 && e.sup = 2) || (e.sub = 2 && e.sup = 0)))
       l.edges);
  check "B sits below both copies" true
    (List.for_all
       (fun sup ->
         List.exists (fun (e : Containment.edge) -> e.sub = 1 && e.sup = sup)
           l.edges)
       [ 0; 2 ])

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

(* The lattice's cheap test proves a subset of the full test's edges. *)
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
    Alcotest.test_case "lattice: chain edges" `Quick test_lattice_chain;
    Alcotest.test_case "lattice: equivalence class" `Quick
      test_lattice_equivalence ]

let props =
  [ prop_subsumes_sound; prop_syntactic_weaker ]
