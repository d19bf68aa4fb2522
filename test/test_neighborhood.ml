(* Neighborhoods (Table 2), including the paper's running examples. *)

open Rdf
open Shacl
open Provenance

let ex local = Term.iri ("http://example.org/" ^ local)
let exi local = Iri.of_string ("http://example.org/" ^ local)
let check_graph = Alcotest.check Tgen.graph_testable
let check = Alcotest.(check bool)

let tr s p o = Triple.make s p o
let g_of = Graph.of_list

(* ------------------------------------------------------------------ *)
(* Example 1.1/1.2: WorkshopShape                                     *)
(* ------------------------------------------------------------------ *)

let author = exi "author"
let ty = Vocab.Rdf.type_
let student = ex "Student"

(* Paper p1 has authors anne (prof) and bob (student). *)
let pub_graph =
  g_of
    [ tr (ex "p1") ty (ex "Paper");
      tr (ex "p1") author (ex "anne");
      tr (ex "p1") author (ex "bob");
      tr (ex "anne") ty (ex "Prof");
      tr (ex "bob") ty student ]

let workshop_shape =
  (* >=1 author . >=1 type . hasValue(Student)   (simplified, no subclass) *)
  Shape.Ge
    ( 1,
      Rdf.Path.Prop author,
      Shape.Ge (1, Rdf.Path.Prop ty, Shape.Has_value student) )

let test_example_1_2 () =
  (* Neighborhood: the author triple to bob plus bob's type triple;
     anne does not qualify, and her triples are excluded. *)
  let expected =
    g_of [ tr (ex "p1") author (ex "bob"); tr (ex "bob") ty student ]
  in
  check_graph "workshop neighborhood" expected
    (Neighborhood.b pub_graph (ex "p1") workshop_shape)

(* ------------------------------------------------------------------ *)
(* Example 3.3: happy at work                                         *)
(* ------------------------------------------------------------------ *)

let test_example_3_3 () =
  let friend = exi "friend" and colleague = exi "colleague" in
  let g =
    g_of
      [ tr (ex "v") friend (ex "x");
        tr (ex "v") colleague (ex "x");
        tr (ex "v") friend (ex "y");
        tr (ex "v") colleague (ex "z") ]
  in
  let shape = Shape.Not (Shape.Disj (Shape.Path (Rdf.Path.Prop friend), colleague)) in
  let expected =
    g_of [ tr (ex "v") friend (ex "x"); tr (ex "v") colleague (ex "x") ]
  in
  check_graph "happy at work" expected (Neighborhood.b g (ex "v") shape)

(* ------------------------------------------------------------------ *)
(* Example 3.5: two-constraint paper schema                           *)
(* ------------------------------------------------------------------ *)

let auth = exi "auth"

let example_graph =
  g_of
    [ tr (ex "p1") ty (ex "paper");
      tr (ex "p1") auth (ex "Anne");
      tr (ex "p1") auth (ex "Bob");
      tr (ex "Anne") ty (ex "prof");
      tr (ex "Bob") ty (ex "student") ]

let tau = Shape.Ge (1, Rdf.Path.Prop ty, Shape.Has_value (ex "paper"))
let phi1 = Shape.Ge (1, Rdf.Path.Prop auth, Shape.Top)

let phi2 =
  (* <=1 auth . <=0 type . hasValue(student)  — already in NNF *)
  Shape.Le
    ( 1,
      Rdf.Path.Prop auth,
      Shape.Le (0, Rdf.Path.Prop ty, Shape.Has_value (ex "student")) )

let test_example_3_5 () =
  let b1 = Neighborhood.b example_graph (ex "p1") (Shape.And [ phi1; tau ]) in
  check_graph "phi1 ∧ tau neighborhood"
    (g_of
       [ tr (ex "p1") ty (ex "paper");
         tr (ex "p1") auth (ex "Anne");
         tr (ex "p1") auth (ex "Bob") ])
    b1;
  let b2 = Neighborhood.b example_graph (ex "p1") (Shape.And [ phi2; tau ]) in
  check_graph "phi2 ∧ tau neighborhood"
    (g_of
       [ tr (ex "p1") ty (ex "paper");
         tr (ex "p1") auth (ex "Bob");
         tr (ex "Bob") ty (ex "student") ])
    b2;
  (* dropping Bob's type triple breaks Sufficiency: some G' between the
     truncated neighborhood and G no longer conforms (add Anne's edge) *)
  let broken =
    Graph.add (ex "p1") auth (ex "Anne")
      (Graph.remove (tr (ex "Bob") ty (ex "student")) b2)
  in
  check "without Bob's type triple, sufficiency breaks" false
    (Conformance.conforms Schema.empty broken (ex "p1")
       (Shape.And [ phi2; tau ]));
  (* while adding Anne's type triple to the full neighborhood is harmless *)
  check "adding unrelated triples preserves conformance" true
    (Conformance.conforms Schema.empty
       (Graph.add (ex "Anne") ty (ex "prof") b2)
       (ex "p1")
       (Shape.And [ phi2; tau ]))

(* ------------------------------------------------------------------ *)
(* Table 2 corner cases                                               *)
(* ------------------------------------------------------------------ *)

let p = exi "p"
let q = exi "q"
let pth = Rdf.Path.Prop p

let test_atomic_empty () =
  let g = g_of [ tr (ex "a") p (ex "b") ] in
  let empty_cases =
    [ Shape.Top;
      Shape.Has_value (ex "a");
      Shape.Test (Node_test.Node_kind Node_test.Iri_kind);
      Shape.Closed (Iri.Set.singleton p);
      Shape.Disj (Shape.Path pth, q);
      Shape.Less_than (pth, q);
      Shape.Unique_lang pth ]
  in
  List.iter
    (fun s ->
      check_graph
        (Format.asprintf "empty neighborhood for %a" Shape.pp s)
        Graph.empty
        (Neighborhood.b g (ex "a") s))
    empty_cases

let test_not_conforming_empty () =
  let g = g_of [ tr (ex "a") p (ex "b") ] in
  check_graph "non-conforming node: empty" Graph.empty
    (Neighborhood.b g (ex "a") (Shape.Ge (2, pth, Shape.Top)))

let test_eq_id () =
  let g = g_of [ tr (ex "a") p (ex "a") ] in
  check_graph "eq(id,p)" (g_of [ tr (ex "a") p (ex "a") ])
    (Neighborhood.b g (ex "a") (Shape.Eq (Shape.Id, p)))

let test_eq_path () =
  (* a -p-> b and a -q-> b: eq(p, q) holds; neighborhood = both triples *)
  let g = g_of [ tr (ex "a") p (ex "b"); tr (ex "a") q (ex "b") ] in
  check_graph "eq(p,q)" g
    (Neighborhood.b g (ex "a") (Shape.Eq (Shape.Path pth, q)))

let test_neq_path () =
  (* a -p-> b, a -p-> c, a -q-> b: ¬eq(p,q): witnesses are the p-edge to c
     (not a q-successor) — and nothing else *)
  let g =
    g_of [ tr (ex "a") p (ex "b"); tr (ex "a") p (ex "c"); tr (ex "a") q (ex "b") ]
  in
  check_graph "¬eq(p,q)"
    (g_of [ tr (ex "a") p (ex "c") ])
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Eq (Shape.Path pth, q))))

let test_neq_both_directions () =
  (* p reaches {b}, q reaches {c}: both directions contribute *)
  let g = g_of [ tr (ex "a") p (ex "b"); tr (ex "a") q (ex "c") ] in
  check_graph "¬eq(p,q) both sides" g
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Eq (Shape.Path pth, q))))

let test_neq_id () =
  let g = g_of [ tr (ex "a") p (ex "a"); tr (ex "a") p (ex "b") ] in
  check_graph "¬eq(id,p)"
    (g_of [ tr (ex "a") p (ex "b") ])
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Eq (Shape.Id, p))))

let test_ndisj_id () =
  let g = g_of [ tr (ex "a") p (ex "a"); tr (ex "a") p (ex "b") ] in
  check_graph "¬disj(id,p) keeps only the loop"
    (g_of [ tr (ex "a") p (ex "a") ])
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Disj (Shape.Id, p))))

let test_nclosed () =
  let g =
    g_of [ tr (ex "a") p (ex "b"); tr (ex "a") q (ex "c"); tr (ex "b") q (ex "c") ]
  in
  check_graph "¬closed({p})"
    (g_of [ tr (ex "a") q (ex "c") ])
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Closed (Iri.Set.singleton p))))

let test_nlessthan () =
  let g =
    g_of
      [ tr (ex "a") p (Term.int 5);
        tr (ex "a") p (Term.int 1);
        tr (ex "a") q (Term.int 3) ]
  in
  (* violating pairs: (5, 3): p-trace of 5 and the q-triple. (1,3) is fine *)
  check_graph "¬lessThan(p,q)"
    (g_of [ tr (ex "a") p (Term.int 5); tr (ex "a") q (Term.int 3) ])
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Less_than (pth, q))))

let test_nuniquelang () =
  let en s = Term.Literal (Literal.lang_string s ~lang:"en") in
  let fr s = Term.Literal (Literal.lang_string s ~lang:"fr") in
  let g =
    g_of
      [ tr (ex "a") p (en "one"); tr (ex "a") p (en "two");
        tr (ex "a") p (fr "trois") ]
  in
  check_graph "¬uniqueLang keeps clashing values only"
    (g_of [ tr (ex "a") p (en "one"); tr (ex "a") p (en "two") ])
    (Neighborhood.b g (ex "a") (Shape.Not (Shape.Unique_lang pth)))

let test_ge_collects_all () =
  (* Remark 3.6: >=1 takes ALL conforming successors (deterministic). *)
  let g = g_of [ tr (ex "a") p (ex "x"); tr (ex "a") p (ex "y") ] in
  check_graph ">=1 keeps both addresses" g
    (Neighborhood.b g (ex "a") (Shape.Ge (1, pth, Shape.Top)))

let test_le_neighborhood () =
  (* <=n E.psi traces successors satisfying ¬psi with their ¬psi provenance *)
  let g =
    g_of
      [ tr (ex "a") p (ex "x");
        tr (ex "a") p (ex "y");
        tr (ex "x") ty student ]
  in
  let shape =
    Shape.Le (1, pth, Shape.Le (0, Rdf.Path.Prop ty, Shape.Has_value student))
  in
  (* x violates the inner <=0 (it has a student type); its ¬-provenance is
     the type triple *)
  check_graph "<=1 neighborhood"
    (g_of [ tr (ex "a") p (ex "x"); tr (ex "x") ty student ])
    (Neighborhood.b g (ex "a") shape)

let test_forall_neighborhood () =
  let g =
    g_of [ tr (ex "a") p (ex "x"); tr (ex "a") p (ex "y"); tr (ex "y") q (ex "z") ]
  in
  let shape = Shape.Forall (pth, Shape.Top) in
  check_graph "forall traces all paths"
    (g_of [ tr (ex "a") p (ex "x"); tr (ex "a") p (ex "y") ])
    (Neighborhood.b g (ex "a") shape)

let test_why_not () =
  let g = g_of [ tr (ex "a") p (ex "b") ] in
  let shape = Shape.Le (0, pth, Shape.Top) in
  (match Neighborhood.why_not g (ex "a") shape with
   | Some explanation ->
       check_graph "why-not explanation" (g_of [ tr (ex "a") p (ex "b") ])
         explanation
   | None -> Alcotest.fail "expected non-conformance");
  check "conforming node has no why-not" true
    (Neighborhood.why_not g (ex "b") shape = None)

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let prop_naive_instrumented_agree =
  QCheck.Test.make
    ~name:"naive and instrumented neighborhoods agree" ~count:500
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape_deep))
    (fun (g, (v, s)) ->
      let conforms, instrumented = Neighborhood.check g v s in
      let naive = Neighborhood.b g v s in
      (conforms = Conformance.conforms Schema.empty g v s)
      && Graph.equal naive instrumented)

let prop_neighborhood_subgraph =
  QCheck.Test.make ~name:"neighborhood is a subgraph" ~count:500
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape_deep))
    (fun (g, (v, s)) -> Graph.subset (Neighborhood.b g v s) g)

let prop_nonconforming_empty =
  QCheck.Test.make ~name:"no conformance, no neighborhood" ~count:300
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape))
    (fun (g, (v, s)) ->
      Conformance.conforms Schema.empty g v s
      || Graph.is_empty (Neighborhood.b g v s))

(* [check_with] (the store route CLI [neighborhood] takes) against the
   instrumented checker and the naive Table 2 neighborhood, for a shape,
   its negation (the why-not pass) and a variant whose always-true
   conjuncts trace the same p-edges again, so rows repeat within one
   collection.  Every (shape, node) pair of a case goes through one
   shared decider, so a verdict left over from an earlier generation
   would show.  Graphs are empty about one time in six; the focus nodes
   include a literal and an IRI that occurs in no triple. *)
let prop_check_with =
  let open QCheck in
  let gen =
    Gen.(
      Tgen.gen_schema () >>= fun schema ->
      let refs =
        List.map (fun (d : Schema.def) -> d.Schema.name) (Schema.defs schema)
      in
      triple (return schema)
        (frequency [ 1, return Graph.empty; 5, Tgen.gen_graph ])
        (Tgen.gen_shape ~refs 2))
  in
  let print (schema, g, phi) =
    Format.asprintf "schema:@.%a@.graph:@.%a@.shape: %a" Schema.pp schema
      Graph.pp g Shape.pp phi
  in
  let pth = Rdf.Path.Prop Tgen.prop_p in
  let overlap phi =
    Shape.And
      [ phi; Shape.Forall (pth, Shape.Top);
        Shape.Ge (0, Rdf.Path.Alt (pth, Rdf.Path.Prop Tgen.prop_q), Shape.Top) ]
  in
  let foci = Tgen.iri "absent" :: List.hd Tgen.literals :: Tgen.nodes in
  Test.make ~name:"check_with ≡ check ≡ b through one decider" ~count:300
    (make gen ~print)
    (fun (schema, g, phi) ->
      let d = Neighborhood.decider (Engine.store_of g) in
      List.for_all
        (fun s ->
          List.for_all
            (fun v ->
              let conforms, nb = Neighborhood.check_with ~schema d v s in
              let conforms', nb' = Neighborhood.check ~schema g v s in
              let naive = Neighborhood.b ~schema g v s in
              (conforms = conforms'
              && Graph.equal nb nb' && Graph.equal nb naive
              && String.equal (Turtle.to_string nb) (Turtle.to_string nb'))
              || Test.fail_reportf
                   "at %a, shape %a:@.store: %b@.%a@.checker: %b@.%a" Term.pp v
                   Shape.pp s conforms Graph.pp nb conforms' Graph.pp nb')
            foci)
        [ phi; Shape.Not phi; overlap phi; Shape.Not (overlap phi) ])

let suite =
  [ "Example 1.2 (WorkshopShape)", `Quick, test_example_1_2;
    "Example 3.3 (happy at work)", `Quick, test_example_3_3;
    "Example 3.5 (two constraints)", `Quick, test_example_3_5;
    "atomic shapes: empty neighborhood", `Quick, test_atomic_empty;
    "non-conforming: empty", `Quick, test_not_conforming_empty;
    "eq(id,p)", `Quick, test_eq_id;
    "eq(E,p)", `Quick, test_eq_path;
    "¬eq(E,p) one direction", `Quick, test_neq_path;
    "¬eq(E,p) both directions", `Quick, test_neq_both_directions;
    "¬eq(id,p)", `Quick, test_neq_id;
    "¬disj(id,p)", `Quick, test_ndisj_id;
    "¬closed", `Quick, test_nclosed;
    "¬lessThan", `Quick, test_nlessthan;
    "¬uniqueLang", `Quick, test_nuniquelang;
    ">= collects all witnesses", `Quick, test_ge_collects_all;
    "<= traces violators of psi", `Quick, test_le_neighborhood;
    "forall traces everything", `Quick, test_forall_neighborhood;
    "why-not provenance", `Quick, test_why_not ]

let props =
  [ prop_naive_instrumented_agree; prop_neighborhood_subgraph;
    prop_nonconforming_empty; prop_check_with ]
