(* Ablation micro-benchmarks (Bechamel): the design choices called out in
   DESIGN.md.

   - neighborhood algorithm: naive per-node recursion (Section 3.3) vs
     the engine's id-space verdict pass and row collector (Section 5.2);
   - path tracing: direct graph tracing vs executing the Q_E query of
     Lemma 5.1;
   - BGP evaluation: index-backed vs naive scanning. *)

open Bechamel
open Workload

let ns_per_run results name =
  match Hashtbl.find_opt results name with
  | Some ols -> (
      match Analyze.OLS.estimates ols with
      | Some (est :: _) -> Some est
      | _ -> None)
  | None -> None

let run_group name tests =
  let grouped = Test.make_grouped ~name tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] in
  List.iter
    (fun n ->
      match ns_per_run results n with
      | Some est -> Printf.printf "  %-50s %12.0f ns/run\n" n est
      | None -> Printf.printf "  %-50s %12s\n" n "n/a")
    (List.sort compare names)

let run ~quick =
  Util.header "Ablations (Bechamel micro-benchmarks)";
  let g =
    Kg.sample_induced (Rand.create 7)
      (Kg.generate ~seed:42 ~individuals:(if quick then 600 else 1500))
      ~nodes:(if quick then 300 else 800)
  in
  Printf.printf "graph: %d triples\n" (Rdf.Graph.cardinal g);

  (* 1. neighborhood algorithm *)
  let heavy =
    match Bench_shapes.find "S56" with
    | Some e -> Bench_shapes.request_shape e
    | None -> assert false
  in
  Printf.printf "\nfragment computation (heavy existential shape S56):\n";
  run_group "fragment"
    [ Test.make ~name:"naive per-node (Sec 3.3)"
        (Staged.stage (fun () ->
             Provenance.Fragment.frag g [ heavy ]));
      Test.make ~name:"engine: decide, then trace (Sec 5.2)"
        (Staged.stage (fun () -> Provenance.Engine.fragment g [ heavy ])) ];

  (* 2. path tracing *)
  let dblp =
    Dblp.generate ~seed:3 ~years:(2018, 2021)
      ~papers_per_year:(if quick then 30 else 80)
      ~authors:(if quick then 150 else 400)
  in
  let coauthor_path =
    Rdf.Path.Seq
      ( Rdf.Path.Inv (Rdf.Path.Prop Dblp.authored_by),
        Rdf.Path.Prop Dblp.authored_by )
  in
  let some_author = Dblp.hub in
  let reachable = Rdf.Path.eval dblp coauthor_path some_author in
  let target =
    match Rdf.Term.Set.choose_opt reachable with
    | Some t -> t
    | None -> some_author
  in
  Printf.printf "\npath tracing graph(paths(a-/a, G, hub, x)) on %d triples:\n"
    (Rdf.Graph.cardinal dblp);
  run_group "trace"
    [ Test.make ~name:"direct tracing (Rdf.Path.trace)"
        (Staged.stage (fun () ->
             Rdf.Path.trace dblp coauthor_path some_author target));
      Test.make ~name:"via Q_E SPARQL query (Lemma 5.1)"
        (Staged.stage (fun () ->
             Provenance.To_sparql.trace_via_sparql dblp coauthor_path
               some_author target)) ];

  (* 3. query plan simplification (raw vs optimized translation) *)
  let review_shape =
    match Bench_shapes.find "S31" with
    | Some e -> Bench_shapes.request_shape e
    | None -> assert false
  in
  let raw_query =
    Provenance.To_sparql.fragment_query ~optimize:false [ review_shape ]
  in
  let optimized_query =
    Provenance.To_sparql.fragment_query ~optimize:true [ review_shape ]
  in
  Printf.printf
    "\ntranslated fragment query for S31 (raw %d ops, simplified %d ops):\n"
    (Provenance.To_sparql.query_size raw_query)
    (Provenance.To_sparql.query_size optimized_query);
  run_group "plan"
    [ Test.make ~name:"raw translation"
        (Staged.stage (fun () -> Sparql.Eval.eval g raw_query));
      Test.make ~name:"simplified plan"
        (Staged.stage (fun () -> Sparql.Eval.eval g optimized_query)) ];

  (* 4. BGP evaluation strategy *)
  let open Sparql.Algebra in
  let bgp =
    BGP
      [ tp (Var "r") (Pred Kg.Voc.reviewer) (Var "p");
        tp (Var "x") (Pred Kg.Voc.has_review) (Var "r");
        tp (Var "p") (Pred Kg.Voc.email) (Var "e") ]
  in
  Printf.printf "\n3-pattern BGP join:\n";
  run_group "bgp"
    [ Test.make ~name:"indexed matching"
        (Staged.stage (fun () ->
             Sparql.Eval.eval ~strategy:Sparql.Eval.Indexed g bgp));
      Test.make ~name:"naive scanning"
        (Staged.stage (fun () ->
             Sparql.Eval.eval ~strategy:Sparql.Eval.Naive g bgp)) ]
