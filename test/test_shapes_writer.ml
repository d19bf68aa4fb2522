(* The shapes-graph writer, checked against the loader: writing a schema
   and loading it back must preserve conformance behavior. *)

open Rdf
open Shacl

let ex local = Term.iri ("http://example.org/" ^ local)
let check = Alcotest.(check bool)

let roundtrip schema =
  match Shapes_writer.write schema with
  | Error e -> Alcotest.failf "writer failed: %a" Shapes_writer.pp_error e
  | Ok g -> (
      match Shapes_graph.load g with
      | Error e -> Alcotest.failf "reload failed: %a" Shapes_graph.pp_error e
      | Ok schema' -> schema')

let test_simple_roundtrip () =
  let shape =
    Shape_syntax.parse_exn
      ">=1 ex:author . >=1 rdf:type/rdfs:subClassOf* . hasValue(ex:Student)"
  in
  let target = Shape_syntax.parse_exn ">=1 rdf:type/rdfs:subClassOf* . hasValue(ex:Paper)" in
  let schema = Schema.def_list [ "http://example.org/S", shape, target ] in
  let schema' = roundtrip schema in
  (* same validation outcome on a graph exercising both branches *)
  let ty = Vocab.Rdf.type_ in
  let author = Iri.of_string "http://example.org/author" in
  let g =
    Graph.of_list
      [ Triple.make (ex "p1") ty (ex "Paper");
        Triple.make (ex "p1") author (ex "bob");
        Triple.make (ex "bob") ty (ex "Student");
        Triple.make (ex "p2") ty (ex "Paper") ]
  in
  let r = Validate.validate schema g and r' = Validate.validate schema' g in
  check "same outcome" r.Validate.conforms r'.Validate.conforms;
  Alcotest.(check int)
    "same number of checks"
    (List.length r.Validate.results)
    (List.length r'.Validate.results)

let test_target_roundtrip () =
  let cases =
    [ "hasValue(ex:n)";
      ">=1 rdf:type/rdfs:subClassOf* . hasValue(ex:C)";
      ">=1 ex:p . top";
      ">=1 ^ex:p . top" ]
  in
  List.iter
    (fun src ->
      let target = Shape_syntax.parse_exn src in
      let schema =
        Schema.def_list [ "http://example.org/S", Shape.Top, target ]
      in
      let schema' = roundtrip schema in
      match Schema.find schema' (ex "S") with
      | Some def ->
          check
            (Printf.sprintf "target %s preserved" src)
            true
            (Shape.equal def.Schema.target target)
      | None -> Alcotest.fail "named definition not found")
    cases

let test_more_than_rejected () =
  let schema =
    Schema.def_list
      [ "http://example.org/S",
        Shape.More_than (Rdf.Path.Prop (Iri.of_string "http://example.org/p"),
                         Iri.of_string "http://example.org/q"),
        Shape.Bottom ]
  in
  check "moreThan rejected" true (Result.is_error (Shapes_writer.write schema))

let test_turtle_output_parses () =
  let shape = Shape_syntax.parse_exn "closed(ex:p, ex:q) | !disj(id, ex:r)" in
  let schema =
    Schema.def_list [ "http://example.org/S", shape, Shape_syntax.parse_exn "hasValue(ex:n)" ]
  in
  match Shapes_writer.to_turtle schema with
  | Error e -> Alcotest.failf "to_turtle: %a" Shapes_writer.pp_error e
  | Ok src ->
      check "turtle reparses" true
        (Result.is_ok (Shapes_graph.load_turtle src))

(* The big one: for random shapes, conformance under the original formal
   shape equals conformance under write-then-load, on random graphs. *)
let prop_semantic_roundtrip =
  QCheck.Test.make ~name:"write/load preserves conformance" ~count:300
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape))
    (fun (g, (v, shape)) ->
      (* exclude the SHACL-less extension *)
      let has_more_than =
        let rec scan s =
          match s with
          | Shape.More_than _ | Shape.More_than_eq _ -> true
          | Shape.Not s -> scan s
          | Shape.And l | Shape.Or l -> List.exists scan l
          | Shape.Ge (_, _, s) | Shape.Le (_, _, s) | Shape.Forall (_, s) ->
              scan s
          | _ -> false
        in
        scan shape
      in
      QCheck.assume (not has_more_than);
      let name = Term.iri "http://example.org/RoundTrip" in
      let schema =
        Schema.make_exn [ { Schema.name; shape; target = Shape.Bottom } ]
      in
      let written = Shapes_writer.write_exn schema in
      let schema' =
        match Shapes_graph.load written with
        | Ok s -> s
        | Error e ->
            QCheck.Test.fail_reportf "reload failed: %a" Shapes_graph.pp_error e
      in
      let direct = Conformance.conforms schema g v shape in
      let via_rdf =
        Conformance.conforms schema' g v (Shape.Has_shape name)
      in
      if direct <> via_rdf then
        QCheck.Test.fail_reportf
          "conformance differs (direct %b, roundtripped %b) for %a" direct
          via_rdf Shape.pp shape
      else true)

let suite =
  [ "workshop shape roundtrip", `Quick, test_simple_roundtrip;
    "target forms roundtrip", `Quick, test_target_roundtrip;
    "moreThan rejected", `Quick, test_more_than_rejected;
    "turtle output reparses", `Quick, test_turtle_output_parses ]

let props = [ prop_semantic_roundtrip ]
