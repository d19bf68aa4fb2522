(* Validation: target evaluation (fast paths vs generic) and reports. *)

open Rdf
open Shacl

let ex local = Term.iri ("http://example.org/" ^ local)
let exi local = Iri.of_string ("http://example.org/" ^ local)
let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let g =
  Graph.of_list
    [ Triple.make (ex "a") Vocab.Rdf.type_ (ex "C");
      Triple.make (ex "Sub") Vocab.Rdfs.sub_class_of (ex "C");
      Triple.make (ex "b") Vocab.Rdf.type_ (ex "Sub");
      Triple.make (ex "a") (exi "p") (ex "x");
      Triple.make (ex "x") (exi "p") (Term.int 1) ]

let def shape target =
  { Schema.name = ex "S"; shape; target }

let schema_of shape target = Schema.make_exn [ def shape target ]

let test_fast_targets_match_generic () =
  (* For each real target form, the fast path must agree with evaluating
     the target as a plain shape over all nodes. *)
  let targets =
    [ Shape.Has_value (ex "a");
      Shape.Has_value (ex "not-in-graph");
      Shape_syntax.parse_exn ">=1 rdf:type/rdfs:subClassOf* . hasValue(ex:C)";
      Shape_syntax.parse_exn ">=1 ex:p . top";
      Shape_syntax.parse_exn ">=1 ^ex:p . top";
      Shape.Or
        [ Shape.Has_value (ex "b");
          Shape_syntax.parse_exn ">=1 ex:p . top" ];
      Shape.Bottom ]
  in
  List.iter
    (fun target ->
      let schema = schema_of Shape.Top target in
      let d = List.hd (Schema.defs schema) in
      let fast = Validate.target_nodes schema g d in
      let generic = Conformance.conforming_nodes schema g target in
      if not (Term.Set.equal fast generic) then
        Alcotest.failf "fast/generic targets differ for %a" Shape.pp target)
    targets

let test_target_node_outside_graph () =
  (* sh:targetNode must target the node even when it has no triples *)
  let schema = schema_of (Shape.Ge (1, Rdf.Path.Prop (exi "p"), Shape.Top))
                 (Shape.Has_value (ex "isolated")) in
  let report = Validate.validate schema g in
  check "isolated target checked" false report.Validate.conforms;
  check_int "one result" 1 (List.length report.Validate.results)

let test_report_contents () =
  let schema =
    schema_of
      (Shape_syntax.parse_exn "forall ex:p . test(kind = iri)")
      (Shape_syntax.parse_exn ">=1 ex:p . top")
  in
  let report = Validate.validate schema g in
  (* targets: a (p->x, iri ok) and x (p->1, literal: violation) *)
  check_int "two targets" 2 (List.length report.Validate.results);
  check "overall fails" false report.Validate.conforms;
  let bad = Validate.violations report in
  check_int "one violation" 1 (List.length bad);
  (match bad with
   | [ r ] -> check "x is the violator" true (Term.equal r.Validate.focus (ex "x"))
   | _ -> Alcotest.fail "expected one violation");
  check "conforms agrees with validate" false (Validate.conforms schema g)

let test_multiple_defs () =
  let schema =
    Schema.make_exn
      [ { Schema.name = ex "S1";
          shape = Shape.Top;
          target = Shape.Has_value (ex "a") };
        { Schema.name = ex "S2";
          shape = Shape.Bottom;
          target = Shape.Has_value (ex "a") } ]
  in
  let report = Validate.validate schema g in
  check_int "both defs checked" 2 (List.length report.Validate.results);
  check "violation from S2" false report.Validate.conforms

let test_empty_schema () =
  let report = Validate.validate Schema.empty g in
  check "empty schema conforms" true report.Validate.conforms;
  check_int "no results" 0 (List.length report.Validate.results)

(* The verdict pass that [Engine.validate] runs, case by case against
   the Table 1 reference [Validate.validate] at -j 1/2/4: reports equal,
   result order included. *)
let verdict_graph =
  let knows = exi "knows" in
  let lit s = Term.Literal (Literal.lang_string s ~lang:"en") in
  Graph.of_list
    ([ Triple.make (ex "s") knows (ex "k0");
       Triple.make (ex "a") (exi "p") (ex "x");
       Triple.make (ex "a") (exi "q") (Term.int 3);
       Triple.make (ex "b") (exi "p") (ex "x");
       Triple.make (ex "a") (exi "lt1") (Term.int 3);
       Triple.make (ex "a") (exi "lt1") (ex "x");
       Triple.make (ex "a") (exi "lt2") (Term.int 5);
       Triple.make (ex "a") (exi "lt2") (ex "y");
       Triple.make (ex "b") (exi "lt1") (Term.int 3);
       Triple.make (ex "b") (exi "lt2") (Term.int 3);
       Triple.make (ex "a") (exi "label") (lit "hi");
       Triple.make (ex "a") (exi "label") (lit "hello");
       Triple.make (ex "b") (exi "label") (lit "hi");
       Triple.make (ex "b") (exi "label")
         (Term.Literal (Literal.lang_string "salut" ~lang:"fr")) ]
    (* a 70-node knows cycle: every closure exceeds 60 *)
    @ List.init 70 (fun i ->
          Triple.make
            (ex (Printf.sprintf "k%d" i))
            knows
            (ex (Printf.sprintf "k%d" ((i + 1) mod 70)))))

let verdict_cases =
  let shape = Shape_syntax.parse_exn in
  let nodes =
    Shape.or_
      (List.map (fun n -> Shape.Has_value (ex n)) [ "a"; "b"; "s"; "k5"; "x"; "k0" ])
  in
  let def name shape target = { Schema.name = ex name; shape; target } in
  let one name shp tgt = (name, Schema.make_exn [ def "S" shp tgt ]) in
  [ one "ghost node target" (shape ">=1 ex:p . top")
      (Shape.Or [ Shape.Has_value (ex "ghost"); Shape.Has_value (ex "a") ]);
    one "ghost node, universal" (shape "forall ex:p . bottom")
      (Shape.Has_value (ex "ghost"));
    one ">=0" (Shape.Ge (0, Rdf.Path.Prop (exi "p"), Shape.Bottom)) nodes;
    one "<=-1, the normal form of !>=0"
      (Shape.Le (-1, Rdf.Path.Prop (exi "p"), Shape.Top)) nodes;
    one "!>=0" (Shape.Not (Shape.Ge (0, Rdf.Path.Prop (exi "p"), Shape.Top))) nodes;
    one "negated closed" (shape "!closed(ex:p)") nodes;
    one "closed" (shape "closed(ex:p, ex:knows)") nodes;
    one "lessThan, mixed values" (shape "lessThan(ex:lt1, ex:lt2)") nodes;
    one "lessThanEq, mixed values" (shape "lessThanEq(ex:lt1, ex:lt2)") nodes;
    one "negated lessThanEq" (shape "!lessThanEq(ex:lt1, ex:lt2)") nodes;
    one "moreThanEq" (shape "moreThanEq(ex:lt2, ex:lt1)") nodes;
    one "uniqueLang" (shape "uniqueLang(ex:label)") nodes;
    one "inverse steps" (shape ">=2 ^ex:p . test(kind = iri)") nodes;
    one "inverse universal" (shape "forall ^ex:knows . >=1 ex:knows . top") nodes;
    one "absent predicate" (shape ">=1 ex:absent . top | forall ex:absent . bottom") nodes;
    one "absent predicate, eq and disj"
      (shape "eq(ex:absent, ex:missing) & disj(id, ex:absent) & !eq(id, ex:absent)")
      nodes;
    one "<=60 knows*, closure past n" (shape "<=60 ex:knows* . top")
      (Shape.Or [ nodes; Shape.Has_value (ex "lone") ]);
    one ">=61 knows*" (shape ">=61 ex:knows* . test(kind = iri)") nodes;
    one "<=60 knows*, non-trivial body" (shape "<=60 ex:knows* . !hasValue(ex:k1)") nodes;
    one "<=69 knows*, closure of 70 and 71" (shape "<=69 ex:knows* . top") nodes;
    one ">=71 knows*" (shape ">=71 ex:knows* . top") nodes;
    one "sequence under >=1" (shape ">=1 ex:knows/ex:knows . hasValue(ex:k7)") nodes;
    one "sequence under forall" (shape "forall ex:knows/^ex:knows . hasValue(ex:s) | hasValue(ex:k69)") nodes;
    ( "hasShape to a shared definition",
      Schema.make_exn
        [ def "Shared" (shape ">=1 ex:knows . top") Shape.Bottom;
          def "A" (Shape.Ge (1, Rdf.Path.Prop (exi "knows"), Shape.Has_shape (ex "Shared"))) nodes;
          def "B" (Shape.Forall (Rdf.Path.Prop (exi "knows"), Shape.Not (Shape.Has_shape (ex "Shared"))))
            (shape ">=1 ex:knows . top") ] ) ]

let test_verdict_pass_table () =
  List.iter
    (fun (name, schema) ->
      let oracle = Validate.validate schema verdict_graph in
      List.iter
        (fun jobs ->
          let report, _ = Provenance.Engine.validate ~jobs schema verdict_graph in
          if report <> oracle then
            Alcotest.failf "%s (-j %d): %a@.expected %a" name jobs
              Validate.pp_report report Validate.pp_report oracle)
        [ 1; 2; 4 ])
    verdict_cases

let suite =
  [ "fast targets equal generic evaluation", `Quick, test_fast_targets_match_generic;
    "verdict pass = Validate.validate (case table)", `Quick, test_verdict_pass_table;
    "node target outside the graph", `Quick, test_target_node_outside_graph;
    "report contents", `Quick, test_report_contents;
    "multiple definitions", `Quick, test_multiple_defs;
    "empty schema", `Quick, test_empty_schema ]

(* Property: fast target computation always agrees with the generic one
   on random graphs for random real-SHACL target forms. *)
let prop_targets =
  let open QCheck in
  let gen_target =
    Gen.oneof
      [ Gen.map (fun c -> Shape.Has_value c) (Gen.oneofl Tgen.nodes);
        Gen.map
          (fun p -> Shape.Ge (1, Rdf.Path.Prop p, Shape.Top))
          (Gen.oneofl Tgen.props);
        Gen.map
          (fun p -> Shape.Ge (1, Rdf.Path.Inv (Rdf.Path.Prop p), Shape.Top))
          (Gen.oneofl Tgen.props) ]
  in
  Test.make ~name:"fast targets = generic targets" ~count:200
    (pair Tgen.arbitrary_graph (make gen_target ~print:Shacl.Shape.to_string))
    (fun (g, target) ->
      let schema = Schema.make_exn [ { Schema.name = ex "S"; shape = Shape.Top; target } ] in
      let d = List.hd (Schema.defs schema) in
      Term.Set.equal
        (Validate.target_nodes schema g d)
        (Conformance.conforming_nodes schema g target))

(* The id-space planner and the verdict pass on graphs with class
   membership and hierarchy, so class targets read real [rdf:type] and
   [rdfs:subClassOf] ranges: [Engine.validate]'s report equals
   [Validate.validate]'s, order included, at -j 1 and 2. *)
let prop_engine_validate_classes =
  let open QCheck in
  Test.make ~name:"Engine.validate = Validate.validate (class graphs)" ~count:300
    (pair
       (make Tgen.gen_graph_with_classes ~print:(Format.asprintf "%a" Graph.pp))
       (Tgen.arbitrary_schema ()))
    (fun (g, schema) ->
      let oracle = Validate.validate schema g in
      List.for_all
        (fun jobs -> fst (Provenance.Engine.validate ~jobs schema g) = oracle)
        [ 1; 2 ])

let props = [ prop_targets; prop_engine_validate_classes ]
