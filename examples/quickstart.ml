(* Quickstart: the paper's running example (Examples 1.1-1.3).

   A publication graph is validated against the WorkshopShape — "every
   paper has at least one student author" — and the provenance of each
   conforming paper is extracted as its neighborhood.

     dune exec examples/quickstart.exe *)

let data =
  {|@prefix ex: <http://example.org/> .
    @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .

    ex:p1 rdf:type ex:Paper ;
          ex:author ex:anne, ex:bob .
    ex:p2 rdf:type ex:Paper ;
          ex:author ex:carl .
    ex:anne rdf:type ex:Professor .
    ex:bob  rdf:type ex:Student .
    ex:carl rdf:type ex:Professor .
  |}

let shapes =
  {|@prefix sh: <http://www.w3.org/ns/shacl#> .
    @prefix ex: <http://example.org/> .

    ex:WorkshopShape a sh:NodeShape ;
        sh:targetClass ex:Paper ;
        sh:property [
          sh:path ex:author ;
          sh:qualifiedMinCount 1 ;
          sh:qualifiedValueShape [ sh:class ex:Student ] ] .
  |}

let () =
  let graph = Rdf.Turtle.parse_exn data in
  let schema = Shacl.Shapes_graph.load_turtle_exn shapes in

  (* 1. Validate: p2 has no student author, so the graph does not conform. *)
  let report = Shacl.Validate.validate schema graph in
  Format.printf "validation: %a@.@." Shacl.Validate.pp_report report;

  (* 2. Provenance: the neighborhood of each conforming target node. *)
  let def = List.hd (Shacl.Schema.defs schema) in
  Rdf.Term.Set.iter
    (fun paper ->
      match
        Provenance.Neighborhood.check ~schema graph paper def.Shacl.Schema.shape
      with
      | true, neighborhood ->
          Format.printf "why does %a conform?@.%a@.@." Rdf.Term.pp paper
            Rdf.Graph.pp neighborhood
      | false, _ -> (
          (* 3. Why-not provenance (Remark 3.7): explain the failure. *)
          match
            Provenance.Neighborhood.why_not ~schema graph paper
              def.Shacl.Schema.shape
          with
          | Some explanation ->
              Format.printf "why does %a NOT conform?@.%a@.@." Rdf.Term.pp
                paper Rdf.Graph.pp explanation
          | None -> assert false))
    (Shacl.Validate.target_nodes schema graph def);

  (* 4. The shape fragment: one subgraph collecting all the evidence. *)
  let fragment = Provenance.Engine.fragment_schema schema graph in
  Format.printf "shape fragment of the schema (%d of %d triples):@.%s@."
    (Rdf.Graph.cardinal fragment)
    (Rdf.Graph.cardinal graph)
    (Rdf.Turtle.to_string fragment)
