(* Test runner: unit suites plus property suites per module. *)

let () =
  Alcotest.run "shaclprov"
    [ "rdf", Test_rdf.suite;
      Tgen.qsuite "rdf:props" Test_rdf.props;
      "graph-differential", Test_graph_differential.suite;
      Tgen.qsuite "graph-differential:props" Test_graph_differential.props;
      "turtle", Test_turtle.suite;
      Tgen.qsuite "turtle:props" Test_turtle.props;
      "path", Test_path.suite;
      Tgen.qsuite "path:props" Test_path.props;
      "shape", Test_shape.suite;
      Tgen.qsuite "shape:props" Test_shape.props;
      "conformance", Test_conformance.suite;
      Tgen.qsuite "conformance:props" Test_conformance.props;
      "shapes-graph", Test_shapes_graph.suite;
      "sparql", Test_sparql.suite;
      Tgen.qsuite "sparql:props" Test_sparql.props;
      "neighborhood", Test_neighborhood.suite;
      Tgen.qsuite "neighborhood:props" Test_neighborhood.props;
      "sufficiency", Test_sufficiency.suite;
      Tgen.qsuite "sufficiency:props" Test_sufficiency.props;
      "engine", Test_engine.suite;
      Tgen.qsuite "engine:props" Test_engine.props;
      "runtime", Test_runtime.suite;
      Tgen.qsuite "runtime:props" Test_runtime.props;
      "service", Test_service.suite;
      Tgen.qsuite "service:props" Test_service.props;
      "to-sparql", Test_to_sparql.suite;
      Tgen.qsuite "to-sparql:props" Test_to_sparql.props;
      "tpf", Test_tpf.suite;
      Tgen.qsuite "tpf:props" Test_tpf.props;
      "workload", Test_workload.suite;
      "sparql-parser", Test_sparql_parser.suite;
      Tgen.qsuite "sparql-parser:props" Test_sparql_parser.props;
      "shapes-writer", Test_shapes_writer.suite;
      Tgen.qsuite "shapes-writer:props" Test_shapes_writer.props;
      "optimizer", Test_optimizer.suite;
      Tgen.qsuite "optimizer:props" Test_optimizer.props;
      "node-test", Test_node_test.suite;
      "validate", Test_validate.suite;
      Tgen.qsuite "validate:props" Test_validate.props;
      "schema", Test_schema.suite;
      Tgen.qsuite "schema:props" Test_schema.props;
      "analysis", Test_analysis.suite;
      Tgen.qsuite "analysis:props" Test_analysis.props;
      "containment", Test_containment.suite;
      Tgen.qsuite "containment:props" Test_containment.props;
      "incremental", Test_incremental.suite;
      Tgen.qsuite "batch:props" Test_batch.props;
      Tgen.qsuite "incremental:props" Test_incremental.props;
      "misc", Test_misc.suite;
      "extensions", Test_extensions.suite;
      Tgen.qsuite "extensions:props" Test_extensions.props ]
