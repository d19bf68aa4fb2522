(* The parallel fragment engine (Engine) against the naive oracle
   (Fragment.frag, Section 3.3), plus the engine's statistics
   invariants.

   - Differential: Engine.fragment ≡ Fragment.frag and
     Engine.fragment_schema ≡ Fragment.frag_schema (exercising the
     target-pruning planner, including its fallback for non-monotone
     targets).
   - Determinism: the fragment does not depend on -j.
   - Theorem 4.1 on engine output: for monotone-target schemas the
     engine's fragment preserves the conforming target nodes.
   - Stats invariants: memo lookups split exactly into hits and misses,
     triples emitted equal the fragment size, candidates add up. *)

open Rdf
open Shacl
open Provenance

let empty_schema = Schema.empty

(* Schemas with references, real-SHACL (monotone) targets most of the
   time and an arbitrary — usually non-monotone — target shape
   otherwise, so both planner paths (pruned and full-scan) are
   exercised. *)
let arbitrary_schema = Tgen.arbitrary_schema ()

let gen_shapes = QCheck.Gen.(list_size (int_range 1 3) (Tgen.gen_shape 2))

let arbitrary_shapes =
  QCheck.make gen_shapes
    ~print:(fun l -> String.concat " | " (List.map Shacl.Shape.to_string l))

let check_equal ~what expected actual =
  if Graph.equal expected actual then true
  else
    QCheck.Test.fail_reportf "%s differ:@.oracle:@.%a@.engine:@.%a" what
      Graph.pp expected Graph.pp actual

(* --- differential: ad-hoc request shapes --------------------------- *)

let prop_differential =
  QCheck.Test.make ~name:"Engine ≡ Fragment.frag (the naive oracle, -j 1/2/4)"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph arbitrary_shapes)
    (fun (g, shapes) ->
      let oracle = Fragment.frag g shapes in
      List.for_all
        (fun jobs ->
          check_equal
            ~what:(Printf.sprintf "fragments (-j %d)" jobs)
            oracle
            (Engine.fragment ~jobs g shapes))
        [ 1; 2; 4 ])

(* --- differential: schema requests (target pruning) ---------------- *)

let prop_differential_schema =
  QCheck.Test.make ~name:"Engine ≡ Fragment.frag_schema (pruned planner)"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      let oracle = Fragment.frag_schema h g in
      List.for_all
        (fun jobs ->
          check_equal
            ~what:(Printf.sprintf "schema fragments (-j %d)" jobs)
            oracle
            (Engine.fragment_schema ~jobs h g))
        [ 1; 2; 4 ])

(* --- determinism across -j ----------------------------------------- *)

let prop_determinism =
  QCheck.Test.make ~name:"fragment independent of -j" ~count:100
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      let reference = Engine.fragment_schema ~jobs:1 h g in
      List.for_all
        (fun jobs ->
          Graph.equal reference (Engine.fragment_schema ~jobs h g))
        [ 2; 3; 4 ])

(* --- deterministic merge: byte-identical output across -j ----------- *)

(* Per-shape fields stable across everything but wall-clock time. *)
let shapes_fingerprint (s : Engine.Stats.t) =
  String.concat "; "
    (List.map
       (fun (sh : Engine.Stats.shape_stat) ->
         Printf.sprintf "%s:%b:%d:%d" sh.label sh.pruned sh.candidates
           sh.conforming)
       s.shapes)

(* The projection of the statistics that is independent of [jobs]:
   chunking splits each shape's candidates into at most [jobs] chunks
   and every chunk gets a private memo table, so the memo and
   path-evaluation counters are deterministic only at a fixed -j
   (engine.mli documents exactly this contract). *)
let cross_jobs_fingerprint (s : Engine.Stats.t) =
  Format.asprintf
    "checked=%d conf=%d emitted=%d retries=%d interned=%d shapes=[%s]"
    s.nodes_checked s.conforming s.triples_emitted s.retries
    s.interned_terms (shapes_fingerprint s)

(* Everything except wall-clock fields: stable across repeated runs at
   a fixed -j. *)
let stats_fingerprint (s : Engine.Stats.t) =
  Format.asprintf
    "%s memo=%d/%d/%d paths=%d probes=%d"
    (cross_jobs_fingerprint s)
    s.memo_lookups s.memo_hits s.memo_misses s.path_evals s.store_lookups

let prop_byte_determinism =
  QCheck.Test.make
    ~name:"byte determinism: turtle + stats identical across -j and reruns"
    ~count:100
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      let observe jobs =
        let fragment, stats =
          Engine.run ~schema:h ~jobs g (Engine.requests_of_schema h)
        in
        (Turtle.to_string fragment, stats)
      in
      let t0, s0 = observe 1 in
      List.for_all
        (fun jobs ->
          let t1, s1 = observe jobs in
          (* rerun at the same -j: full counters must repeat *)
          let t1', s1' = observe jobs in
          String.equal t0 t1
          && String.equal (cross_jobs_fingerprint s0) (cross_jobs_fingerprint s1)
          && String.equal t1 t1'
          && String.equal (stats_fingerprint s1) (stats_fingerprint s1'))
        [ 1; 2; 3; 4 ])

(* --- Theorem 4.1 / Sufficiency on engine output -------------------- *)

let prop_conformance_preserved =
  QCheck.Test.make
    ~name:"Theorem 4.1: engine fragment preserves conforming targets"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      QCheck.assume (Analysis.Monotone.monotone_targets h);
      let fragment = Engine.fragment_schema ~jobs:2 h g in
      List.for_all
        (fun (def : Schema.def) ->
          Term.Set.for_all
            (fun v ->
              (not (Conformance.conforms h g v def.shape))
              || Conformance.conforms h fragment v def.shape)
            (Validate.target_nodes h g def))
        (Schema.defs h))

(* Sufficiency (Theorem 3.4) viewed through the engine: every node that
   conforms to a request shape in G still conforms in the fragment the
   engine produced (the fragment contains its neighborhood). *)
let prop_sufficiency_engine =
  QCheck.Test.make ~name:"Sufficiency: conforming nodes survive in fragment"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph Tgen.arbitrary_shape)
    (fun (g, s) ->
      let fragment = Engine.fragment ~jobs:2 g [ s ] in
      Term.Set.for_all
        (fun v ->
          (not (Conformance.conforms empty_schema g v s))
          || Conformance.conforms empty_schema fragment v s)
        (Graph.nodes g))

(* --- validate parity ------------------------------------------------ *)

let result_equal (a : Validate.result) (b : Validate.result) =
  Term.equal a.focus b.focus
  && Term.equal a.shape_name b.shape_name
  && a.conforms = b.conforms

let prop_validate_parity =
  QCheck.Test.make ~name:"Engine.validate ≡ Validate.validate" ~count:200
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      let oracle = Validate.validate h g in
      List.for_all
        (fun jobs ->
          let report, _ = Engine.validate ~jobs h g in
          report.Validate.conforms = oracle.Validate.conforms
          && List.length report.results = List.length oracle.results
          && List.for_all2 result_equal report.results oracle.results)
        [ 1; 2; 4 ])

(* --- evaluation-time unfolding ------------------------------------ *)

(* [Schema.unfold] changes no verdict and no neighborhood.  The entry
   points unfold by themselves, so their runs on [h] and on [unfold h]
   are compared with each other and pinned to evaluations that resolve
   every [hasShape] by lookup in [h]: per definition and node, the
   verdicts of shape and target and the literal Table 2 neighborhood of
   the request agree between the loaded and the unfolded definition, and
   the engine's fragment equals the naive [Fragment.frag_schema h].  Sufficiency
   (Thm 3.4): every conforming target's neighborhood lies inside the
   unfolded-schema fragment and the target conforms in both. *)
let prop_unfold_differential =
  QCheck.Test.make
    ~name:"Schema.unfold: same reports, fragments and neighborhoods"
    ~count:500
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      let u = Schema.unfold h in
      let nodes = Term.Set.union (Graph.nodes g) (Term.Set.of_list Tgen.nodes) in
      let request (d : Schema.def) = Shape.and_ [ d.shape; d.target ] in
      let same_def (d : Schema.def) (d' : Schema.def) =
        Term.equal d.name d'.name
        && Term.Set.for_all
             (fun v ->
               Conformance.conforms h g v d.shape
               = Conformance.conforms u g v d'.shape
               && Conformance.conforms h g v d.target
                  = Conformance.conforms u g v d'.target
               && Graph.equal
                    (Neighborhood.b ~schema:h g v (request d))
                    (Neighborhood.b ~schema:u g v (request d')))
             nodes
      in
      let report_bytes r = Format.asprintf "%a" Validate.pp_report r in
      let report = Validate.validate h g in
      let reports =
        [ Validate.validate u g;
          fst (Engine.validate h g);
          fst (Engine.validate ~jobs:2 u g) ]
      in
      let oracle = Fragment.frag_schema h g in
      let fragment = Engine.fragment_schema u g in
      let sufficient (r : Validate.result) =
        (not r.conforms)
        ||
        let phi = request (Option.get (Schema.find h r.shape_name)) in
        let nb = Neighborhood.b ~schema:h g r.focus phi in
        Graph.subset nb fragment
        && Conformance.conforms h nb r.focus phi
        && Conformance.conforms h fragment r.focus phi
      in
      List.length (Schema.defs h) = List.length (Schema.defs u)
      && List.for_all2 same_def (Schema.defs h) (Schema.defs u)
      && List.for_all
           (fun (r : Validate.report) ->
             String.equal (report_bytes report) (report_bytes r)
             && List.equal result_equal report.results r.results)
           reports
      && Graph.equal oracle fragment
      && Graph.equal oracle (Engine.fragment_schema h g)
      && List.for_all sufficient report.results)

(* The shrunk seed-90 counterexample of [prop_unfold_differential]:
   [shape2 = ¬(≥0 q?. uniqueLang(q|q))] is untargeted and used once, so
   unfolding inlines it under [≤1 p].  The [≤1 p] neighborhood traces
   the successors that conform to [¬shape2], i.e. to [≥0 q?. ...], which
   traces their [q] edges.  Inlined, that negation went through the
   normal form of [shape2]'s body, which used to be [⊥] (negated: [⊤],
   tracing nothing), so the unfolded schema lost those triples. *)
let test_unfold_negated_ge0 () =
  let g =
    Turtle.parse_exn
      "@prefix ex: <http://example.org/> .\n\
       ex:a ex:r ex:b, ex:d, \"bonjour\"@fr .\n\
       ex:b ex:p ex:d, \"bonjour\"@fr, \"x\" ; ex:q 2 .\n\
       ex:c ex:p ex:b, 1 .\n\
       ex:d ex:q \"x\" ; ex:r ex:e .\n\
       ex:e ex:p ex:d ; ex:q 5 ; ex:r ex:e .\n"
  in
  let def i shape target =
    { Schema.name = Term.iri (Printf.sprintf "http://example.org/shape%d" i);
      shape = Shape_syntax.parse_exn shape;
      target = Shape_syntax.parse_exn target }
  in
  let h =
    Schema.make_exn
      [ def 0 "hasValue(\"x\")"
          "hasValue(ex:a) | >=1 rdf:type/rdfs:subClassOf* . hasValue(ex:a) \
           | >=1 rdf:type/rdfs:subClassOf* . hasValue(ex:d)";
        def 1 "forall ex:p . !moreThan(ex:p, ex:q)" "hasValue(ex:b)";
        def 2 "!(>=0 ex:q? . uniqueLang(ex:q|ex:q))" "bottom";
        def 3 ">=0 ex:r? . (<=1 ex:p . shape(ex:shape2))"
          "<=0 ex:r|ex:q . shape(ex:shape1)" ]
  in
  let u = Schema.unfold h in
  let request (d : Schema.def) = Shape.and_ [ d.shape; d.target ] in
  List.iter2
    (fun (d : Schema.def) (d' : Schema.def) ->
      Term.Set.iter
        (fun v ->
          Alcotest.(check bool)
            (Format.asprintf "neighborhood of %a for %a" Term.pp v Term.pp
               d.name)
            true
            (Graph.equal
               (Neighborhood.b ~schema:h g v (request d))
               (Neighborhood.b ~schema:u g v (request d'))))
        (Graph.nodes g))
    (Schema.defs h) (Schema.defs u);
  Alcotest.(check bool) "unfolded engine fragment = oracle" true
    (Graph.equal
       (Fragment.frag_schema h g)
       (Engine.fragment_schema u g))

(* --- stats invariants ----------------------------------------------- *)

let stats_invariants (stats : Engine.Stats.t) fragment =
  let sum f = List.fold_left (fun n s -> n + f s) 0 stats.shapes in
  stats.memo_lookups = stats.memo_hits + stats.memo_misses
  && stats.triples_emitted = Graph.cardinal fragment
  && stats.nodes_checked = sum (fun (s : Engine.Stats.shape_stat) -> s.candidates)
  && stats.conforming = sum (fun (s : Engine.Stats.shape_stat) -> s.conforming)
  && stats.conforming <= stats.nodes_checked

let prop_stats_invariants =
  QCheck.Test.make ~name:"Stats: lookups = hits + misses, emitted = |frag|"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      List.for_all
        (fun jobs ->
          let fragment, stats =
            Engine.run ~schema:h ~jobs g (Engine.requests_of_schema h)
          in
          stats_invariants stats fragment)
        [ 1; 2; 4 ])

(* --- unit tests ------------------------------------------------------ *)

let ex local = Term.iri ("http://example.org/" ^ local)
let p = Iri.of_string "http://example.org/p"
let ty = Vocab.Rdf.type_

let sample_graph =
  Graph.of_list
    [ Triple.make (ex "a") p (ex "b");
      Triple.make (ex "b") p (ex "c");
      Triple.make (ex "a") ty (ex "T");
      Triple.make (ex "d") ty (ex "T") ]

let sample_schema =
  Schema.def_list
    [ ( "http://example.org/S",
        Shape.Ge (1, Rdf.Path.Prop p, Shape.Top),
        Shape.Ge
          (1, Rdf.Path.Prop ty, Shape.Has_value (ex "T")) ) ]

let test_engine_matches_oracle () =
  let oracle = Fragment.frag_schema sample_schema sample_graph in
  List.iter
    (fun jobs ->
      Alcotest.check Tgen.graph_testable
        (Printf.sprintf "fragment -j %d" jobs)
        oracle
        (Engine.fragment_schema ~jobs sample_schema sample_graph))
    [ 1; 2; 4 ]

let test_stats_pruning () =
  let fragment, stats =
    Engine.run ~schema:sample_schema ~jobs:2 sample_graph
      (Engine.requests_of_schema sample_schema)
  in
  Alcotest.(check bool) "invariants" true (stats_invariants stats fragment);
  match stats.shapes with
  | [ s ] ->
      Alcotest.(check bool) "target pruning applied" true s.Engine.Stats.pruned;
      (* targets of the class-like target: a and d only *)
      Alcotest.(check int) "pruned candidate count" 2 s.Engine.Stats.candidates;
      Alcotest.(check int) "conforming" 1 s.Engine.Stats.conforming
  | l -> Alcotest.failf "expected one shape stat, got %d" (List.length l)

let test_stats_counts () =
  let fragment, stats =
    Engine.run ~jobs:1 sample_graph
      [ Engine.request (Shape.Ge (1, Rdf.Path.Prop p, Shape.Top)) ]
  in
  Alcotest.(check int) "triples emitted = |fragment|"
    (Graph.cardinal fragment) stats.Engine.Stats.triples_emitted;
  Alcotest.(check int) "lookups = hits + misses"
    stats.Engine.Stats.memo_lookups
    (stats.Engine.Stats.memo_hits + stats.Engine.Stats.memo_misses);
  (* no target: every node (a b c d T) is a candidate *)
  Alcotest.(check int) "full scan candidates" 5 stats.Engine.Stats.nodes_checked;
  Alcotest.(check bool) "path evaluations counted" true
    (stats.Engine.Stats.path_evals > 0)

let test_validate_matches () =
  let oracle = Validate.validate sample_schema sample_graph in
  let report, stats = Engine.validate ~jobs:2 sample_schema sample_graph in
  Alcotest.(check bool) "conforms" oracle.Validate.conforms
    report.Validate.conforms;
  Alcotest.(check int) "result count"
    (List.length oracle.Validate.results)
    (List.length report.Validate.results);
  Alcotest.(check bool) "results identical" true
    (List.for_all2 result_equal oracle.Validate.results
       report.Validate.results);
  Alcotest.(check int) "no triples emitted" 0 stats.Engine.Stats.triples_emitted

(* --- fault isolation and graceful degradation ----------------------- *)

(* Two independent definitions so one can fail while the other's
   fragment must survive. *)
let resilience_schema =
  Schema.def_list
    [ ( "http://example.org/S1",
        Shape.Ge (1, Rdf.Path.Prop p, Shape.Top),
        Shape.Ge (1, Rdf.Path.Prop ty, Shape.Has_value (ex "T")) );
      ( "http://example.org/S2",
        Shape.Ge (1, Rdf.Path.Prop ty, Shape.Top),
        Shape.Ge (1, Rdf.Path.Prop ty, Shape.Has_value (ex "T")) ) ]

(* The deterministic-merge regression: the per-worker accumulator merge
   must make the fragment bytes, the report bytes and the (stable
   projection of the) statistics identical across -j 1/2/4 and across
   repeated runs at each -j. *)
let test_deterministic_merge () =
  let requests = Engine.requests_of_schema resilience_schema in
  let observe jobs =
    let fragment, stats =
      Engine.run ~schema:resilience_schema ~jobs sample_graph requests
    in
    let report, vstats = Engine.validate ~jobs resilience_schema sample_graph in
    ( Turtle.to_string fragment,
      Format.asprintf "%a" Validate.pp_report report,
      stats, vstats )
  in
  let t0, r0, s0, v0 = observe 1 in
  List.iter
    (fun jobs ->
      let t1, r1, s1, v1 = observe jobs in
      let t1', r1', s1', v1' = observe jobs in
      Alcotest.(check string) (Printf.sprintf "turtle bytes -j %d" jobs) t0 t1;
      Alcotest.(check string) (Printf.sprintf "report bytes -j %d" jobs) r0 r1;
      Alcotest.(check string)
        (Printf.sprintf "cross-j run stats -j %d" jobs)
        (cross_jobs_fingerprint s0) (cross_jobs_fingerprint s1);
      Alcotest.(check string)
        (Printf.sprintf "cross-j validate stats -j %d" jobs)
        (cross_jobs_fingerprint v0) (cross_jobs_fingerprint v1);
      Alcotest.(check string) (Printf.sprintf "rerun turtle -j %d" jobs) t1 t1';
      Alcotest.(check string) (Printf.sprintf "rerun report -j %d" jobs) r1 r1';
      Alcotest.(check string)
        (Printf.sprintf "rerun run stats -j %d" jobs)
        (stats_fingerprint s1) (stats_fingerprint s1');
      Alcotest.(check string)
        (Printf.sprintf "rerun validate stats -j %d" jobs)
        (stats_fingerprint v1) (stats_fingerprint v1'))
    [ 1; 2; 4 ]

let with_fault ?at site f =
  Runtime.Fault.configure ?at site;
  Fun.protect ~finally:Runtime.Fault.disable f

let shape_site (r : Engine.request) = "shape:" ^ r.label

let test_fault_isolation () =
  let requests = Engine.requests_of_schema resilience_schema in
  let faulted, healthy =
    match requests with
    | [ r1; r2 ] -> r1, r2
    | _ -> Alcotest.fail "expected two requests"
  in
  with_fault (shape_site faulted) (fun () ->
      let fragment, stats =
        Engine.run ~schema:resilience_schema ~jobs:4 ~on_error:`Skip
          sample_graph requests
      in
      Alcotest.(check bool) "degraded" true (Engine.Stats.degraded stats);
      (match Engine.Stats.failed_shapes stats with
      | [ (label, Runtime.Outcome.Crashed _) ] ->
          Alcotest.(check string) "failed shape recorded" faulted.Engine.label
            label
      | l -> Alcotest.failf "unexpected failed_shapes (%d)" (List.length l));
      (* differential: the healthy shape's full fragment survives, and
         nothing beyond the all-healthy oracle is emitted *)
      let healthy_oracle =
        Engine.fragment ~schema:resilience_schema sample_graph
          [ healthy.Engine.shape ]
      in
      let full_oracle =
        Fragment.frag_schema resilience_schema sample_graph
      in
      Alcotest.(check bool) "healthy fragment ⊆ engine output" true
        (Graph.subset healthy_oracle fragment);
      Alcotest.(check bool) "engine output ⊆ full oracle" true
        (Graph.subset fragment full_oracle))

let test_fault_retry_succeeds () =
  (* A transient fault: the first chunk probe raises, the sequential
     retry succeeds — complete output, one retry, nothing failed. *)
  with_fault ~at:1 "engine.chunk" (fun () ->
      let oracle = Fragment.frag_schema resilience_schema sample_graph in
      let fragment, stats =
        Engine.run ~schema:resilience_schema ~jobs:2 sample_graph
          (Engine.requests_of_schema resilience_schema)
      in
      Alcotest.(check bool) "not degraded" false (Engine.Stats.degraded stats);
      Alcotest.(check int) "one retry" 1 stats.Engine.Stats.retries;
      Alcotest.check Tgen.graph_testable "complete output" oracle fragment)

let test_fault_fail_policy_raises () =
  let requests = Engine.requests_of_schema resilience_schema in
  with_fault (shape_site (List.hd requests)) (fun () ->
      match
        Engine.run ~schema:resilience_schema ~jobs:2 sample_graph requests
      with
      | _ -> Alcotest.fail "expected Injected to re-raise under `Fail"
      | exception Runtime.Fault.Injected _ -> ())

let test_fuel_outcome_recorded () =
  let budget = Runtime.Budget.make ~fuel:1 () in
  let _, stats =
    Engine.run ~schema:resilience_schema ~budget ~on_error:`Skip sample_graph
      (Engine.requests_of_schema resilience_schema)
  in
  Alcotest.(check bool) "degraded" true (Engine.Stats.degraded stats);
  Alcotest.(check bool) "fuel outcomes only" true
    (List.for_all
       (fun (_, r) -> r = Runtime.Outcome.Fuel_exhausted)
       (Engine.Stats.failed_shapes stats))

let test_validate_skip_excludes_failed () =
  let requests = Engine.requests_of_schema resilience_schema in
  with_fault (shape_site (List.hd requests)) (fun () ->
      let report, stats =
        Engine.validate ~jobs:2 ~on_error:`Skip resilience_schema sample_graph
      in
      Alcotest.(check bool) "degraded" true (Engine.Stats.degraded stats);
      let oracle = Validate.validate resilience_schema sample_graph in
      (* only S1's results are missing *)
      let s1 = Term.iri "http://example.org/S1" in
      let surviving =
        List.filter
          (fun (r : Validate.result) -> not (Term.equal r.shape_name s1))
          oracle.Validate.results
      in
      Alcotest.(check int) "surviving result count" (List.length surviving)
        (List.length report.Validate.results);
      Alcotest.(check bool) "surviving results identical" true
        (List.for_all2 result_equal surviving report.Validate.results))

(* Property form of the acceptance check: fault one shape of a random
   multi-shape schema; with `Skip and -j 4 the run completes, the failed
   shape is reported, and the output is sandwiched between the healthy
   oracle and the full oracle. *)
let prop_fault_isolation =
  QCheck.Test.make ~name:"fault isolation: healthy ⊆ output ⊆ oracle"
    ~count:100
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      let requests = Engine.requests_of_schema h in
      QCheck.assume (List.length requests >= 2);
      (* pick a shape that actually has candidates: a shape with none
         spawns no chunks and thus never hits a probe *)
      let _, healthy_stats = Engine.run ~schema:h g requests in
      let faulted =
        List.nth_opt
          (List.filteri
             (fun i _ ->
               (List.nth healthy_stats.Engine.Stats.shapes i)
                 .Engine.Stats.candidates > 0)
             requests)
          0
      in
      QCheck.assume (faulted <> None);
      let faulted = Option.get faulted in
      let healthy =
        List.filter (fun (r : Engine.request) -> r != faulted) requests
      in
      with_fault (shape_site faulted) (fun () ->
          let fragment, stats =
            Engine.run ~schema:h ~jobs:4 ~on_error:`Skip g requests
          in
          let healthy_oracle =
            Fragment.frag ~schema:h g
              (List.map (fun (r : Engine.request) -> r.shape) healthy)
          in
          let full_oracle =
            Fragment.frag ~schema:h g
              (List.map (fun (r : Engine.request) -> r.shape) requests)
          in
          Engine.Stats.degraded stats
          && List.mem_assoc faulted.Engine.label
               (Engine.Stats.failed_shapes stats)
          && Graph.subset healthy_oracle fragment
          && Graph.subset fragment full_oracle))

(* --- the fragment is a row view ------------------------------------- *)

let kg_fragment () =
  let g = Workload.Kg.generate ~seed:3 ~individuals:200 in
  let requests =
    List.filteri (fun i _ -> i < 6) Workload.Bench_shapes.all
    |> List.map (fun e ->
           Engine.request (Workload.Bench_shapes.request_shape e))
  in
  Engine.run g requests

let test_run_row_view () =
  let frag, stats = kg_fragment () in
  let oracle = Graph.of_list (Graph.to_list frag) in
  (match Graph.row_view frag with
  | None -> Alcotest.fail "expected a row view"
  | Some (_, rows) ->
      Alcotest.(check bool) "rows ascending" true
        (Array.for_all Fun.id
           (Array.init (Array.length rows - 1) (fun i -> rows.(i) < rows.(i + 1)))));
  Alcotest.(check int) "cardinal = triples emitted"
    stats.Engine.Stats.triples_emitted (Graph.cardinal frag);
  Alcotest.(check bool) "non-empty" true (Graph.cardinal frag > 0);
  Alcotest.(check bool) "no store of its own" true
    (Graph.store frag = None && not (Graph.frozen frag));
  Alcotest.(check string) "Turtle = the Format oracle on the maps"
    (Format_writer.to_string oracle) (Turtle.to_string frag);
  let frozen = Graph.freeze frag in
  Alcotest.(check bool) "freeze builds the view's store" true
    (match Graph.store frozen, Graph.store (Graph.freeze oracle) with
     | Some a, Some b -> Store.equal a b
     | _ -> false);
  Alcotest.(check bool) "the view itself stays storeless" true
    (Graph.store frag = None)

(* Two domains that build one view's maps at the same moment both get
   the maps of its triples; neither raises. *)
let test_row_view_two_domains () =
  let frag, _ = kg_fragment () in
  let st, rows = Option.get (Graph.row_view frag) in
  let oracle = Graph.of_list (Graph.to_list frag) in
  let probe =
    Triple.make (Term.iri "http://example.org/probe") Vocab.Rdf.type_
      (Term.iri "http://example.org/Probe")
  in
  let expected = Graph.add_triple probe oracle in
  for _ = 1 to 5 do
    let v = Graph.of_rows st rows in
    let ready = Atomic.make 0 in
    let read () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      let nodes = Graph.nodes v in
      Graph.add_triple probe v, nodes
    in
    let d1 = Domain.spawn read and d2 = Domain.spawn read in
    let g1, n1 = Domain.join d1 and g2, n2 = Domain.join d2 in
    Alcotest.(check bool) "equal graphs" true
      (Graph.equal g1 expected && Graph.equal g2 expected);
    Alcotest.(check bool) "equal nodes" true
      (Term.Set.equal n1 (Graph.nodes oracle) && Term.Set.equal n1 n2);
    Alcotest.check Tgen.graph_testable "the view is unchanged" oracle v
  done

(* --- decide, then trace: strays and witness rows -------------------- *)

(* The CLI fixture's graph (test/cli/data.ttl). *)
let cli_graph =
  Turtle.parse_exn
    "@prefix ex: <http://example.org/> .\n\
     @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n\
     ex:p1 rdf:type ex:Paper ; ex:author ex:bob .\n\
     ex:bob rdf:type ex:Student .\n\
     ex:p2 rdf:type ex:Paper ; ex:author ex:carl .\n\
     ex:carl rdf:type ex:Prof .\n"

(* A request constant the dictionary never interned (a stray) is a
   candidate that occurs in no triple: it is decided on the empty graph
   and contributes no rows.  [hasValue] of it holds at the stray alone,
   its negation at the seven graph nodes. *)
let test_stray_candidates () =
  List.iter
    (fun (text, conforming) ->
      let requests = [ Engine.request (Shape_syntax.parse_exn text) ] in
      let per_node, per_stats = Engine.run ~kernel:`Per_node cli_graph requests in
      List.iter
        (fun jobs ->
          let fragment, stats = Engine.run ~jobs cli_graph requests in
          let what = Printf.sprintf "%s -j %d" text jobs in
          Alcotest.(check int) (what ^ ": candidates") 8
            stats.Engine.Stats.nodes_checked;
          Alcotest.(check int) (what ^ ": conforming") conforming
            stats.Engine.Stats.conforming;
          Alcotest.(check int) (what ^ ": conforming = `Per_node")
            per_stats.Engine.Stats.conforming stats.Engine.Stats.conforming;
          Alcotest.(check int) (what ^ ": no rows") 0 (Graph.cardinal fragment);
          Alcotest.(check string) (what ^ ": fragment = `Per_node")
            (Turtle.to_string per_node) (Turtle.to_string fragment))
        [ 1; 2; 4 ])
    [ ("hasValue(ex:absent)", 1); ("!hasValue(ex:absent)", 7) ]

(* [≤1 p⁻ . closed(p, s)] at [v]: one of its three [p]-predecessors is
   closed, so [v] conforms, and the neighborhood traces the two
   predecessors that conform to the negated body, [¬closed(p, s)], each
   with the triple that breaks closedness — not [a]'s allowed [s]
   triple. *)
let test_le_inverse_negated_closed () =
  let g =
    Turtle.parse_exn
      "@prefix ex: <http://example.org/> .\n\
       ex:a ex:p ex:v ; ex:q ex:x ; ex:s ex:z .\n\
       ex:b ex:p ex:v .\n\
       ex:c ex:p ex:v ; ex:r ex:y .\n"
  in
  let shape = Shape_syntax.parse_exn "<=1 ^ex:p . closed(ex:p, ex:s)" in
  let t s p o =
    Triple.make (ex s) (Iri.of_string ("http://example.org/" ^ p)) (ex o)
  in
  let expected =
    Graph.of_list [ t "a" "p" "v"; t "c" "p" "v"; t "a" "q" "x"; t "c" "r" "y" ]
  in
  Alcotest.check Tgen.graph_testable "naive fragment" expected
    (Fragment.frag g [ shape ]);
  let per_node, _ = Engine.run ~kernel:`Per_node g [ Engine.request shape ] in
  Alcotest.check Tgen.graph_testable "`Per_node fragment" expected per_node;
  List.iter
    (fun jobs ->
      let fragment, _ = Engine.run ~jobs g [ Engine.request shape ] in
      Alcotest.check Tgen.graph_testable
        (Printf.sprintf "`Batched fragment -j %d" jobs)
        expected fragment)
    [ 1; 2; 4 ]

(* The empty graph runs the batched path over an empty store: every
   candidate is a stray, decided by [of_term], and no row is collected.
   [hasValue(ex:a)] holds at its constant, its negation nowhere. *)
let test_empty_graph_run () =
  List.iter
    (fun (text, conforming) ->
      let shape = Shape_syntax.parse_exn text in
      let requests = [ Engine.request shape ] in
      let oracle = Fragment.frag Graph.empty [ shape ] in
      let per_node, per_stats = Engine.run ~kernel:`Per_node Graph.empty requests in
      Alcotest.check Tgen.graph_testable (text ^ ": `Per_node = oracle") oracle
        per_node;
      Alcotest.(check int) (text ^ ": `Per_node conforming") conforming
        per_stats.Engine.Stats.conforming;
      List.iter
        (fun jobs ->
          let fragment, stats = Engine.run ~jobs Graph.empty requests in
          let what = Printf.sprintf "%s -j %d" text jobs in
          Alcotest.(check int) (what ^ ": candidates") 1
            stats.Engine.Stats.nodes_checked;
          Alcotest.(check int) (what ^ ": conforming") conforming
            stats.Engine.Stats.conforming;
          Alcotest.(check int) (what ^ ": empty fragment") 0
            (Graph.cardinal fragment);
          Alcotest.check Tgen.graph_testable (what ^ ": fragment = oracle")
            oracle fragment)
        [ 1; 2; 4 ])
    [ ("hasValue(ex:a)", 1); ("!hasValue(ex:a)", 0) ]

(* Validation of the empty graph: a node target's node occurs in no
   triple, so it is decided on the empty graph, as [Validate] does. *)
let test_empty_graph_validate () =
  let node_target = Shape.Has_value (ex "a") in
  let schema =
    Schema.make_exn
      [ { Schema.name = ex "Holds"; shape = Shape.Not (Shape.Has_value (ex "b"));
          target = node_target };
        { Schema.name = ex "Fails"; shape = Shape.Ge (1, Rdf.Path.Prop p, Shape.Top);
          target = node_target } ]
  in
  let oracle = Validate.validate schema Graph.empty in
  List.iter
    (fun jobs ->
      let report, _ = Engine.validate ~jobs schema Graph.empty in
      let what = Printf.sprintf "-j %d" jobs in
      Alcotest.(check bool) (what ^ ": conforms") oracle.Validate.conforms
        report.Validate.conforms;
      Alcotest.(check int) (what ^ ": result count") 2
        (List.length report.Validate.results);
      Alcotest.(check bool) (what ^ ": results = Validate.validate") true
        (List.length oracle.Validate.results
         = List.length report.Validate.results
        && List.for_all2 result_equal oracle.Validate.results
             report.Validate.results))
    [ 1; 2 ]

let suite =
  [ "engine matches oracle", `Quick, test_engine_matches_oracle;
    "stats: pruning and counts", `Quick, test_stats_pruning;
    "stats: emitted and memo", `Quick, test_stats_counts;
    "parallel validate parity", `Quick, test_validate_matches;
    "deterministic merge across -j", `Quick, test_deterministic_merge;
    "fault isolation", `Quick, test_fault_isolation;
    "transient fault: retry succeeds", `Quick, test_fault_retry_succeeds;
    "`Fail policy re-raises", `Quick, test_fault_fail_policy_raises;
    "fuel outcome recorded", `Quick, test_fuel_outcome_recorded;
    "validate `Skip excludes failed def", `Quick,
    test_validate_skip_excludes_failed;
    "unfold: a negated >=0 keeps its neighborhood", `Quick,
    test_unfold_negated_ge0;
    "run returns a row view", `Quick, test_run_row_view;
    "row view: two domains build the maps at once", `Quick,
    test_row_view_two_domains;
    "strays: decided, no rows, at -j 1/2/4", `Quick, test_stray_candidates;
    "<=n through p^-: negated closed rows", `Quick,
    test_le_inverse_negated_closed;
    "empty graph: strays at -j 1/2/4", `Quick, test_empty_graph_run;
    "empty graph: validate a node target", `Quick, test_empty_graph_validate ]

let props =
  [ prop_differential;
    prop_differential_schema; prop_determinism; prop_byte_determinism;
    prop_conformance_preserved;
    prop_sufficiency_engine; prop_validate_parity; prop_unfold_differential;
    prop_stats_invariants; prop_fault_isolation ]
