(* Conformance semantics (Table 1). *)

open Rdf
open Shacl

let ex local = Term.iri ("http://example.org/" ^ local)
let exi local = Iri.of_string ("http://example.org/" ^ local)
let p = exi "p"
let q = exi "q"
let pp_ = Rdf.Path.Prop p
let h = Schema.empty
let check = Alcotest.(check bool)

let conforms ?(schema = h) g a phi = Conformance.conforms schema g a phi

(* a -p-> b, a -p-> c, a -q-> c, b -p-> b (self loop), c: literals *)
let g =
  Graph.of_list
    [ Triple.make (ex "a") p (ex "b");
      Triple.make (ex "a") p (ex "c");
      Triple.make (ex "a") q (ex "c");
      Triple.make (ex "b") p (ex "b");
      Triple.make (ex "c") p (Term.int 3);
      Triple.make (ex "c") q (Term.int 5) ]

let test_boolean () =
  check "top" true (conforms g (ex "a") Shape.Top);
  check "bottom" false (conforms g (ex "a") Shape.Bottom);
  check "not" true (conforms g (ex "a") (Shape.Not Shape.Bottom));
  check "and" true
    (conforms g (ex "a") (Shape.And [ Shape.Top; Shape.Not Shape.Bottom ]));
  check "and fails" false
    (conforms g (ex "a") (Shape.And [ Shape.Top; Shape.Bottom ]));
  check "or" true (conforms g (ex "a") (Shape.Or [ Shape.Bottom; Shape.Top ]));
  check "empty or" false (conforms g (ex "a") (Shape.Or []))

let test_has_value_test () =
  check "hasValue self" true (conforms g (ex "a") (Shape.Has_value (ex "a")));
  check "hasValue other" false (conforms g (ex "a") (Shape.Has_value (ex "b")));
  check "test iri kind" true
    (conforms g (ex "a") (Shape.Test (Node_test.Node_kind Node_test.Iri_kind)));
  check "test literal kind fails on iri" false
    (conforms g (ex "a")
       (Shape.Test (Node_test.Node_kind Node_test.Literal_kind)))

let test_counting () =
  check ">=2 p" true (conforms g (ex "a") (Shape.Ge (2, pp_, Shape.Top)));
  check ">=3 p" false (conforms g (ex "a") (Shape.Ge (3, pp_, Shape.Top)));
  check ">=0 always" true (conforms g (ex "d") (Shape.Ge (0, pp_, Shape.Top)));
  check "<=2 p" true (conforms g (ex "a") (Shape.Le (2, pp_, Shape.Top)));
  check "<=1 p" false (conforms g (ex "a") (Shape.Le (1, pp_, Shape.Top)));
  check "<=0 on node without p" true
    (conforms g (ex "d") (Shape.Le (0, pp_, Shape.Top)));
  (* [≤-1], the normal form of [¬≥0], holds nowhere, not even on a node
     without successors *)
  check "<=-1 on node without p" false
    (conforms g (ex "d") (Shape.Le (-1, pp_, Shape.Top)));
  check ">=1 with filter" true
    (conforms g (ex "a") (Shape.Ge (1, pp_, Shape.Has_value (ex "c"))));
  check ">=2 with filter" false
    (conforms g (ex "a") (Shape.Ge (2, pp_, Shape.Has_value (ex "c"))))

let test_forall () =
  check "forall p iri" true
    (conforms g (ex "a")
       (Shape.Forall (pp_, Shape.Test (Node_test.Node_kind Node_test.Iri_kind))));
  check "forall on c fails (literals)" false
    (conforms g (ex "c")
       (Shape.Forall (pp_, Shape.Test (Node_test.Node_kind Node_test.Iri_kind))));
  check "forall vacuous" true
    (conforms g (ex "d") (Shape.Forall (pp_, Shape.Bottom)))

let test_eq_disj () =
  (* b: only outgoing p-edge is the self loop *)
  check "eq(id,p) on b" true (conforms g (ex "b") (Shape.Eq (Shape.Id, p)));
  check "eq(id,p) on a" false (conforms g (ex "a") (Shape.Eq (Shape.Id, p)));
  check "disj(id,p) on a" true (conforms g (ex "a") (Shape.Disj (Shape.Id, p)));
  check "disj(id,p) on b" false (conforms g (ex "b") (Shape.Disj (Shape.Id, p)));
  (* a: p reaches {b,c}, q reaches {c}: not equal, not disjoint *)
  check "eq(p,q) on a" false
    (conforms g (ex "a") (Shape.Eq (Shape.Path pp_, q)));
  check "disj(p,q) on a" false
    (conforms g (ex "a") (Shape.Disj (Shape.Path pp_, q)));
  (* d: both empty: equal and disjoint *)
  check "eq on empty" true (conforms g (ex "d") (Shape.Eq (Shape.Path pp_, q)));
  check "disj on empty" true
    (conforms g (ex "d") (Shape.Disj (Shape.Path pp_, q)))

let test_closed () =
  check "closed {p,q} on a" true
    (conforms g (ex "a") (Shape.Closed (Iri.Set.of_list [ p; q ])));
  check "closed {p} on a" false
    (conforms g (ex "a") (Shape.Closed (Iri.Set.singleton p)));
  check "closed {} on isolated" true
    (conforms g (ex "d") (Shape.Closed Iri.Set.empty))

let test_less_than () =
  (* c -p-> 3, c -q-> 5 *)
  check "lessThan(p,q) on c" true
    (conforms g (ex "c") (Shape.Less_than (pp_, q)));
  check "lessThan(q,p) on c" false
    (conforms g (ex "c") (Shape.Less_than (Rdf.Path.Prop q, p)));
  check "lessThanEq" true
    (conforms g (ex "c") (Shape.Less_than_eq (pp_, q)));
  check "moreThan(q,p) on c" true
    (conforms g (ex "c") (Shape.More_than (Rdf.Path.Prop q, p)));
  (* non-literals make the comparison fail *)
  check "lessThan with iri values" false
    (conforms g (ex "a") (Shape.Less_than (pp_, q)));
  check "lessThan vacuous" true
    (conforms g (ex "d") (Shape.Less_than (pp_, q)))

let test_unique_lang () =
  let lit tag s = Term.Literal (Literal.lang_string s ~lang:tag) in
  let g2 =
    Graph.of_list
      [ Triple.make (ex "a") p (lit "en" "one");
        Triple.make (ex "a") p (lit "fr" "un");
        Triple.make (ex "b") p (lit "en" "one");
        Triple.make (ex "b") p (lit "en" "two");
        Triple.make (ex "c") p (Term.str "plain");
        Triple.make (ex "c") p (Term.str "other") ]
  in
  check "distinct languages ok" true
    (conforms g2 (ex "a") (Shape.Unique_lang pp_));
  check "duplicate language fails" false
    (conforms g2 (ex "b") (Shape.Unique_lang pp_));
  check "untagged literals ok" true
    (conforms g2 (ex "c") (Shape.Unique_lang pp_))

let test_has_shape () =
  let schema =
    Schema.def_list
      [ "http://example.org/HasP",
        Shape.Ge (1, pp_, Shape.Top),
        Shape.Bottom ]
  in
  check "hasShape resolves" true
    (conforms ~schema g (ex "a")
       (Shape.Has_shape (ex "HasP")));
  check "hasShape fails" false
    (conforms ~schema g (ex "d") (Shape.Has_shape (ex "HasP")));
  check "undefined shape name means top" true
    (conforms ~schema g (ex "d") (Shape.Has_shape (ex "Undefined")))

(* Conformance must be invariant under NNF. *)
let prop_nnf_invariant =
  QCheck.Test.make ~name:"conformance invariant under NNF" ~count:500
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape_deep))
    (fun (g, (v, s)) ->
      Conformance.conforms Schema.empty g v s
      = Conformance.conforms Schema.empty g v (Shape.nnf s))

(* Double negation is the identity on conformance. *)
let prop_double_negation =
  QCheck.Test.make ~name:"double negation" ~count:300
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape))
    (fun (g, (v, s)) ->
      Conformance.conforms Schema.empty g v s
      = Conformance.conforms Schema.empty g v (Shape.Not (Shape.Not s)))

(* conforming_nodes agrees with pointwise conformance. *)
let prop_conforming_nodes =
  QCheck.Test.make ~name:"conforming_nodes pointwise" ~count:200
    QCheck.(pair Tgen.arbitrary_graph Tgen.arbitrary_shape)
    (fun (g, s) ->
      let set = Conformance.conforming_nodes Schema.empty g s in
      Term.Set.for_all (fun v -> Conformance.conforms Schema.empty g v s) set
      && Term.Set.for_all
           (fun v ->
             Term.Set.mem v set = Conformance.conforms Schema.empty g v s)
           (Graph.nodes g))

let suite =
  [ "boolean connectives", `Quick, test_boolean;
    "hasValue and tests", `Quick, test_has_value_test;
    "counting quantifiers", `Quick, test_counting;
    "universal quantifier", `Quick, test_forall;
    "equality and disjointness", `Quick, test_eq_disj;
    "closedness", `Quick, test_closed;
    "lessThan family", `Quick, test_less_than;
    "uniqueLang", `Quick, test_unique_lang;
    "shape references", `Quick, test_has_shape ]

let props = [ prop_nnf_invariant; prop_double_negation; prop_conforming_nodes ]
