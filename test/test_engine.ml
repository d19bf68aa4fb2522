(* The parallel fragment engine (Engine) against its sequential oracle
   (Fragment), plus the engine's statistics invariants.

   - Differential: Engine.fragment ≡ Fragment.frag for both algorithms,
     and Engine.fragment_schema ≡ Fragment.frag_schema (exercising the
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

(* Schemas with real-SHACL (monotone) targets most of the time, and an
   arbitrary — usually non-monotone — target shape otherwise, so both
   planner paths (pruned and full-scan) are exercised. *)
let gen_schema =
  let open QCheck.Gen in
  let monotone_target =
    oneof
      [ map (fun c -> Shape.Has_value c) (oneofl Tgen.nodes);
        map
          (fun p -> Shape.Ge (1, Rdf.Path.Prop p, Shape.Top))
          (oneofl Tgen.props);
        map
          (fun p -> Shape.Ge (1, Rdf.Path.Inv (Rdf.Path.Prop p), Shape.Top))
          (oneofl Tgen.props) ]
  in
  let target =
    frequency [ 4, monotone_target; 1, Tgen.gen_shape 1 ]
  in
  let def i shape target =
    { Schema.name = Term.iri (Printf.sprintf "http://example.org/shape%d" i);
      shape;
      target }
  in
  map
    (fun specs -> Schema.make_exn (List.mapi (fun i (s, t) -> def i s t) specs))
    (list_size (int_range 1 3) (pair (Tgen.gen_shape 2) target))

let arbitrary_schema =
  QCheck.make gen_schema ~print:(fun h -> Format.asprintf "%a" Schema.pp h)

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

let prop_differential_instrumented =
  QCheck.Test.make ~name:"Engine ≡ Fragment.frag (instrumented, -j 1/2/4)"
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

let prop_differential_naive =
  QCheck.Test.make ~name:"Engine ≡ Fragment.frag (naive)" ~count:100
    QCheck.(pair Tgen.arbitrary_graph arbitrary_shapes)
    (fun (g, shapes) ->
      let oracle = Fragment.frag ~algorithm:Fragment.Naive g shapes in
      List.for_all
        (fun jobs ->
          check_equal
            ~what:(Printf.sprintf "naive fragments (-j %d)" jobs)
            oracle
            (Engine.fragment ~algorithm:Fragment.Naive ~jobs g shapes))
        [ 1; 2 ])

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
    test_validate_skip_excludes_failed ]

let props =
  [ prop_differential_instrumented; prop_differential_naive;
    prop_differential_schema; prop_determinism; prop_byte_determinism;
    prop_conformance_preserved;
    prop_sufficiency_engine; prop_validate_parity; prop_stats_invariants;
    prop_fault_isolation ]
