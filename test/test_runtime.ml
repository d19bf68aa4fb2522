(* The resilient-execution runtime (Runtime.Budget / Fault / Outcome)
   and its integration with the evaluation stack.

   - Budget: fuel is shared and exact, deadlines expire, [unlimited]
     never raises.
   - Fault: probes raise only at the configured site (and, with [@N],
     only on the N-th probe); disabled faults are free.
   - Retry: backoff delays stay within their cap, and an injectable
     clock proves the overall wall-clock deadline cuts the attempt
     loop, independent of per-attempt outcomes.
   - Regression: adversarially deep inputs — deeply nested shapes and
     long property-path chains — exhaust the fuel guard as a clean
     [Budget.Exhausted Fuel] at a safe point instead of overflowing the
     stack or running away. *)

open Rdf
open Shacl

let reason_testable =
  Alcotest.testable
    (fun ppf (r : Runtime.Budget.reason) -> Runtime.Budget.pp_reason ppf r)
    ( = )

(* --- Budget ---------------------------------------------------------- *)

let test_unlimited () =
  let b = Runtime.Budget.unlimited in
  for _ = 1 to 10_000 do
    Runtime.Budget.tick b
  done;
  Alcotest.(check bool) "never expires" true (Runtime.Budget.expired b = None)

let test_fuel_exact () =
  let b = Runtime.Budget.make ~fuel:5 () in
  for _ = 1 to 5 do
    Runtime.Budget.tick b
  done;
  match Runtime.Budget.tick b with
  | () -> Alcotest.fail "expected Exhausted Fuel on tick 6"
  | exception Runtime.Budget.Exhausted r ->
      Alcotest.check reason_testable "fuel reason" Runtime.Budget.Fuel r;
      Alcotest.check reason_testable "expired agrees" Runtime.Budget.Fuel
        (Option.get (Runtime.Budget.expired b))

let test_fuel_shared_across_domains () =
  (* Fuel is one atomic pool: total successful ticks over all domains is
     exactly the fuel, regardless of interleaving. *)
  let fuel = 1000 in
  let b = Runtime.Budget.make ~fuel () in
  let count_ticks () =
    let n = ref 0 in
    (try
       while true do
         Runtime.Budget.tick b;
         incr n
       done
     with Runtime.Budget.Exhausted _ -> ());
    !n
  in
  let domains = List.init 4 (fun _ -> Domain.spawn count_ticks) in
  let total = List.fold_left (fun n d -> n + Domain.join d) 0 domains in
  Alcotest.(check int) "total ticks = fuel" fuel total

let test_deadline () =
  let b = Runtime.Budget.make ~timeout:0.02 () in
  Alcotest.(check bool) "not yet expired" true
    (Runtime.Budget.expired b = None);
  Unix.sleepf 0.03;
  (match Runtime.Budget.check b with
  | () -> Alcotest.fail "expected Exhausted Deadline"
  | exception Runtime.Budget.Exhausted r ->
      Alcotest.check reason_testable "deadline reason" Runtime.Budget.Deadline r);
  Alcotest.(check bool) "seconds_left clamped to 0" true
    (Runtime.Budget.seconds_left b = Some 0.)

let test_fuel_left () =
  let b = Runtime.Budget.make ~fuel:3 () in
  Runtime.Budget.tick b;
  Alcotest.(check (option int)) "fuel left" (Some 2) (Runtime.Budget.fuel_left b);
  Alcotest.(check (option int)) "unlimited has none" None
    (Runtime.Budget.fuel_left Runtime.Budget.unlimited)

(* --- Fault ----------------------------------------------------------- *)

let with_fault ?at site f =
  Runtime.Fault.configure ?at site;
  Fun.protect ~finally:Runtime.Fault.disable f

let test_fault_site_match () =
  with_fault "here" (fun () ->
      Runtime.Fault.probe "elsewhere" (* no-op *);
      match Runtime.Fault.probe "here" with
      | () -> Alcotest.fail "expected Injected"
      | exception Runtime.Fault.Injected s ->
          Alcotest.(check string) "site" "here" s)

let test_fault_nth_probe () =
  with_fault ~at:2 "site" (fun () ->
      Runtime.Fault.probe "site";
      (* probe 1: survives *)
      (match Runtime.Fault.probe "site" with
      | () -> Alcotest.fail "expected Injected on probe 2"
      | exception Runtime.Fault.Injected _ -> ());
      (* later probes survive again: the fault is one-shot *)
      Runtime.Fault.probe "site")

let test_fault_spec_parsing () =
  Alcotest.(check bool) "SITE@N accepted" true
    (Result.is_ok (Runtime.Fault.set_spec "engine.chunk@3"));
  Runtime.Fault.disable ();
  Alcotest.(check bool) "bare SITE accepted" true
    (Result.is_ok (Runtime.Fault.set_spec "shape:<http://example.org/S>"));
  Runtime.Fault.disable ();
  Alcotest.(check bool) "bad count rejected" true
    (Result.is_error (Runtime.Fault.set_spec "site@zero"));
  Alcotest.(check bool) "empty rejected" true
    (Result.is_error (Runtime.Fault.set_spec ""));
  (* a rejected spec must leave injection disabled *)
  Runtime.Fault.probe "site"

(* --- Outcome --------------------------------------------------------- *)

let test_outcome_of_exn () =
  let open Runtime.Outcome in
  Alcotest.(check bool) "deadline" true
    (reason_of_exn (Runtime.Budget.Exhausted Runtime.Budget.Deadline)
    = Timed_out);
  Alcotest.(check bool) "fuel" true
    (reason_of_exn (Runtime.Budget.Exhausted Runtime.Budget.Fuel)
    = Fuel_exhausted);
  (match reason_of_exn (Runtime.Fault.Injected "x") with
  | Crashed _ -> ()
  | _ -> Alcotest.fail "expected Crashed");
  match reason_of_exn Stack_overflow with
  | Crashed _ -> ()
  | _ -> Alcotest.fail "expected Crashed for Stack_overflow"

(* --- deep-recursion regressions -------------------------------------- *)

let ex local = Term.iri ("http://example.org/" ^ local)
let p = Iri.of_string "http://example.org/p"

(* A chain a0 -p-> a1 -p-> ... -p-> an. *)
let chain_graph n =
  Graph.of_list
    (List.init n (fun i ->
         Triple.make (ex (string_of_int i)) p (ex (string_of_int (i + 1)))))

(* phi_0 = T, phi_{k+1} = >=1 p. phi_k: conformance of a0 recurses to
   depth [n]. *)
let nested_shape n =
  let rec go k acc =
    if k = 0 then acc else go (k - 1) (Shape.Ge (1, Path.Prop p, acc))
  in
  go n Shape.Top

let expect_fuel_exhausted what f =
  match f () with
  | (_ : bool) -> Alcotest.failf "%s: expected Budget.Exhausted" what
  | exception Runtime.Budget.Exhausted Runtime.Budget.Fuel -> ()
  | exception e ->
      Alcotest.failf "%s: expected Exhausted Fuel, got %s" what
        (Printexc.to_string e)

let test_deep_shape_fuel_conformance () =
  let depth = 200_000 in
  let g = chain_graph depth in
  let shape = nested_shape depth in
  let budget = Runtime.Budget.make ~fuel:10_000 () in
  expect_fuel_exhausted "conformance on deeply nested shape" (fun () ->
      Conformance.conforms ~budget Schema.empty g (ex "0") shape)

let test_deep_shape_fuel_neighborhood () =
  let depth = 200_000 in
  let g = chain_graph depth in
  let shape = nested_shape depth in
  let budget = Runtime.Budget.make ~fuel:10_000 () in
  expect_fuel_exhausted "neighborhood on deeply nested shape" (fun () ->
      fst (Provenance.Neighborhood.check ~budget g (ex "0") shape))

(* The id-space twin of the test above: the default (batched) engine
   on a frozen chain.  The deadline is only a backstop: fuel must run
   out first. *)
let test_deep_shape_fuel_engine () =
  let depth = 200_000 in
  let g = Graph.freeze (chain_graph depth) in
  let shape = nested_shape depth in
  let budget = Runtime.Budget.make ~timeout:5. ~fuel:10_000 () in
  expect_fuel_exhausted "engine on deeply nested shape" (fun () ->
      let fragment, _ =
        Provenance.Engine.run ~budget g [ Provenance.Engine.request shape ]
      in
      Graph.is_empty fragment)

(* Without fuel, a shape thousands of levels deep is still constant
   work per (node, level) pair: the run ends well inside its deadline.
   Only the chain's head conforms, so the fragment is the naive
   oracle's neighborhood of the head — the whole chain.  The naive
   fragment itself is compared on a shallower chain: its conformance
   memo hashes a shape only down to a bounded depth, so on deep shapes
   it degrades far beyond any deadline. *)
let test_deep_shape_engine_completes () =
  let engine_fragment depth =
    let g = Graph.freeze (chain_graph depth) in
    let shape = nested_shape depth in
    let budget = Runtime.Budget.make ~timeout:5. () in
    let fragment, _ =
      Provenance.Engine.run ~budget g [ Provenance.Engine.request shape ]
    in
    (g, shape, fragment)
  in
  let g, shape, fragment = engine_fragment 3_000 in
  Alcotest.(check int) "whole chain" 3_000 (Graph.cardinal fragment);
  Alcotest.(check bool) "fragment = naive neighborhood of the head" true
    (Graph.equal (Provenance.Neighborhood.b g (ex "0") shape) fragment);
  let g, shape, fragment = engine_fragment 100 in
  Alcotest.(check bool) "fragment = naive fragment (depth 100)" true
    (Graph.equal
       (Provenance.Fragment.frag g [ shape ])
       fragment)

(* Validation runs the verdict pass: a shape or a target expression
   2,000 levels deep over a 2,000-triple chain is constant work per
   (node, level) pair, where [Conformance]'s memo degrades beyond any
   deadline (0.09 / 1.38 / 21.8 s at depth 100 / 200 / 400).  Only the
   chain's head conforms.  At depth 100 the reports equal the
   sequential [Validate.validate]'s. *)
let deep_schemas depth =
  let deep = nested_shape depth in
  [ Schema.make_exn
      [ { Schema.name = ex "Deep"; shape = deep;
          target = Shape.Ge (1, Path.Prop p, Shape.Top) } ];
    Schema.make_exn
      [ { Schema.name = ex "DeepTarget"; shape = Shape.Top; target = deep } ] ]

let test_deep_shape_validate_completes () =
  let g = Graph.freeze (chain_graph 2_000) in
  List.iter
    (fun schema ->
      let t = Unix.gettimeofday () in
      let budget = Runtime.Budget.make ~timeout:5. () in
      let report, _ = Provenance.Engine.validate ~budget schema g in
      Alcotest.(check bool) "within the deadline" true
        (Unix.gettimeofday () -. t < 5.);
      Alcotest.(check (list string)) "only the head conforms" [ "<http://example.org/0>" ]
        (List.filter_map
           (fun (r : Validate.result) ->
             if r.conforms then Some (Term.to_string r.focus) else None)
           report.results))
    (deep_schemas 2_000);
  let g = Graph.freeze (chain_graph 100) in
  List.iter
    (fun schema ->
      let oracle = Validate.validate schema g in
      List.iter
        (fun jobs ->
          let report, _ = Provenance.Engine.validate ~jobs schema g in
          Alcotest.(check bool) "report = Validate.validate (depth 100)" true
            (report = oracle))
        [ 1; 2 ])
    (deep_schemas 100)

let test_deep_shape_fuel_validate () =
  let depth = 200_000 in
  let g = Graph.freeze (chain_graph depth) in
  let schema =
    Schema.make_exn
      [ { Schema.name = ex "Deep"; shape = nested_shape depth;
          target = Shape.Has_value (ex "0") } ]
  in
  let budget = Runtime.Budget.make ~timeout:5. ~fuel:10_000 () in
  expect_fuel_exhausted "validate on deeply nested shape" (fun () ->
      (fst (Provenance.Engine.validate ~budget schema g)).conforms)

let test_long_path_chain_fuel () =
  (* One shape whose path is a sequence of 100k hops: path evaluation,
     not shape recursion, must burn the fuel. *)
  let hops = 100_000 in
  let g = chain_graph hops in
  let rec seq k acc = if k = 0 then acc else seq (k - 1) (Path.Seq (Path.Prop p, acc)) in
  let path = seq (hops - 1) (Path.Prop p) in
  let shape = Shape.Ge (1, path, Shape.Top) in
  let budget = Runtime.Budget.make ~fuel:10_000 () in
  expect_fuel_exhausted "long path chain" (fun () ->
      Conformance.conforms ~budget Schema.empty g (ex "0") shape)

let test_bounded_run_completes_without_budget () =
  (* Sanity: a modest instance of the same family still completes when
     no budget is set — the guards above fired because of fuel, not
     because the inputs were malformed. *)
  let depth = 50 in
  let g = chain_graph depth in
  Alcotest.(check bool) "conforms" true
    (Conformance.conforms Schema.empty g (ex "0") (nested_shape depth))

(* --- Retry ----------------------------------------------------------- *)

(* The classifier decides: non-retryable errors (a parse error fails the
   same way every time) must not be retried. *)
let test_retry_non_retryable_once () =
  let calls = ref 0 in
  let policy = Runtime.Retry.policy ~max_attempts:5 () in
  let result =
    Runtime.Retry.run ~sleep:(fun _ -> ()) policy
      ~retryable:(fun e -> e <> `Parse_error)
      (fun _ ->
        incr calls;
        Error `Parse_error)
  in
  Alcotest.(check bool) "error returned" true (result = Error `Parse_error);
  Alcotest.(check int) "called exactly once" 1 !calls

let test_retry_eventual_success () =
  let calls = ref 0 in
  let slept = ref 0 in
  let policy = Runtime.Retry.policy ~max_attempts:5 () in
  let result =
    Runtime.Retry.run
      ~sleep:(fun _ -> incr slept)
      ~rand:(fun u -> u)
      policy
      ~retryable:(fun _ -> true)
      (fun attempt ->
        incr calls;
        if attempt < 3 then Error `Transient else Ok attempt)
  in
  Alcotest.(check bool) "succeeded on attempt 3" true (result = Ok 3);
  Alcotest.(check int) "three calls" 3 !calls;
  Alcotest.(check int) "slept between attempts" 2 !slept

let test_retry_first_try_no_sleep () =
  let slept = ref false in
  let result =
    Runtime.Retry.run
      ~sleep:(fun _ -> slept := true)
      Runtime.Retry.default
      ~retryable:(fun _ -> true)
      (fun _ -> Ok ())
  in
  Alcotest.(check bool) "ok" true (result = Ok ());
  Alcotest.(check bool) "no sleep on immediate success" false !slept

(* A fake clock: [now] reads it, [sleep] advances it.  No real time
   passes in these tests. *)
let fake_clock start =
  let t = ref start in
  (fun () -> !t), (fun d -> t := !t +. d)

let test_retry_deadline_cuts_attempts () =
  let now, sleep = fake_clock 0.0 in
  let attempts = ref 0 in
  let policy =
    Runtime.Retry.policy ~max_attempts:100 ~base_delay:1.0 ~cap_delay:1.0 ()
  in
  let result =
    Runtime.Retry.run ~sleep ~rand:(fun f -> f) ~now ~deadline:3.5 policy
      ~retryable:(fun _ -> true)
      (fun _ -> incr attempts; Error `Transient)
  in
  Alcotest.(check bool) "still the error" true (result = Error `Transient);
  (* attempts at t=0,1,2,3; the next sleep would land past 3.5 *)
  Alcotest.(check int) "deadline cut the loop" 4 !attempts

let test_retry_deadline_clamps_last_sleep () =
  let now, sleep = fake_clock 0.0 in
  let slept = ref [] in
  let sleep d = slept := d :: !slept; sleep d in
  let policy =
    Runtime.Retry.policy ~max_attempts:10 ~base_delay:10.0 ~cap_delay:10.0 ()
  in
  ignore
    (Runtime.Retry.run ~sleep ~rand:(fun f -> f) ~now ~deadline:4.0 policy
       ~retryable:(fun _ -> true)
       (fun _ -> Error `Transient)
      : (unit, _) result);
  List.iter
    (fun d -> Alcotest.(check bool) "sleep within deadline" true (d <= 4.0))
    !slept

let test_retry_no_deadline_unchanged () =
  let now, sleep = fake_clock 0.0 in
  let attempts = ref 0 in
  let policy = Runtime.Retry.policy ~max_attempts:5 ~base_delay:1.0 () in
  ignore
    (Runtime.Retry.run ~sleep ~rand:(fun f -> f) ~now policy
       ~retryable:(fun _ -> true)
       (fun _ -> incr attempts; Error `Transient)
      : (unit, _) result);
  Alcotest.(check int) "all attempts used" 5 !attempts

(* Policies drawn small enough to compute the exponential exactly. *)
let arbitrary_policy_attempt =
  QCheck.make
    ~print:(fun ((base, cap), (attempt, frac)) ->
      Printf.sprintf "base=%g cap=%g attempt=%d frac=%g" base cap attempt frac)
    QCheck.Gen.(
      pair
        (pair (float_range 0.0001 5.0) (float_range 0.0001 5.0))
        (pair (int_range 1 80) (float_range 0.0 1.0)))

let prop_retry_delay_in_range =
  QCheck.Test.make ~name:"retry: every sampled delay lies in [0, cap]"
    ~count:500 arbitrary_policy_attempt
    (fun ((base, cap), (attempt, frac)) ->
      let policy =
        Runtime.Retry.policy ~base_delay:base ~cap_delay:cap ()
      in
      (* [rand u] returns an arbitrary point of [0, u] *)
      let d = Runtime.Retry.delay policy ~rand:(fun u -> frac *. u) ~attempt in
      d >= 0.0 && d <= cap)

let prop_retry_delay_capped =
  QCheck.Test.make
    ~name:"retry: delays cap out once the exponential crosses the cap"
    ~count:500
    (QCheck.make
       QCheck.Gen.(pair (float_range 0.0001 1.0) (float_range 0.0001 4.0)))
    (fun (base, cap) ->
      let policy = Runtime.Retry.policy ~base_delay:base ~cap_delay:cap () in
      (* first attempt whose uncapped backoff base*2^(k-1) reaches cap *)
      let rec cross k =
        if k > 100 || Float.ldexp base (k - 1) >= cap then k else cross (k + 1)
      in
      let crossing = cross 1 in
      (* with the maximal jitter sample, every later delay is exactly cap *)
      List.for_all
        (fun extra ->
          Runtime.Retry.delay policy ~rand:Fun.id ~attempt:(crossing + extra)
          = cap)
        [ 0; 1; 5; 20 ])

let prop_retry_attempts_bounded =
  QCheck.Test.make
    ~name:"retry: attempt count never exceeds the policy maximum" ~count:200
    QCheck.(int_range 1 10)
    (fun max_attempts ->
      let policy =
        Runtime.Retry.policy ~max_attempts ~base_delay:0.0 ~cap_delay:0.0 ()
      in
      let calls = ref 0 in
      let result =
        Runtime.Retry.run ~sleep:(fun _ -> ()) policy
          ~retryable:(fun _ -> true)
          (fun _ ->
            incr calls;
            Error `Always)
      in
      result = Error `Always && !calls = max_attempts)

let props =
  [ prop_retry_delay_in_range; prop_retry_delay_capped;
    prop_retry_attempts_bounded ]

let suite =
  [ "budget: unlimited is free", `Quick, test_unlimited;
    "budget: fuel is exact", `Quick, test_fuel_exact;
    "budget: fuel shared across domains", `Quick,
    test_fuel_shared_across_domains;
    "budget: deadline expires", `Quick, test_deadline;
    "budget: fuel_left", `Quick, test_fuel_left;
    "retry: non-retryable called once", `Quick,
    test_retry_non_retryable_once;
    "retry: eventual success", `Quick, test_retry_eventual_success;
    "retry: no sleep on first success", `Quick, test_retry_first_try_no_sleep;
    "retry: deadline cuts the attempt loop", `Quick,
    test_retry_deadline_cuts_attempts;
    "retry: deadline clamps backoff sleeps", `Quick,
    test_retry_deadline_clamps_last_sleep;
    "retry: no deadline leaves the loop alone", `Quick,
    test_retry_no_deadline_unchanged;
    "fault: site match", `Quick, test_fault_site_match;
    "fault: nth probe only", `Quick, test_fault_nth_probe;
    "fault: spec parsing", `Quick, test_fault_spec_parsing;
    "outcome: reason_of_exn", `Quick, test_outcome_of_exn;
    "regression: deep shape, conformance", `Quick,
    test_deep_shape_fuel_conformance;
    "regression: deep shape, neighborhood", `Quick,
    test_deep_shape_fuel_neighborhood;
    "regression: deep shape, engine", `Quick, test_deep_shape_fuel_engine;
    "regression: deep shape, engine completes", `Quick,
    test_deep_shape_engine_completes;
    "regression: deep shape, validate", `Quick, test_deep_shape_fuel_validate;
    "regression: deep shape, validate completes", `Quick,
    test_deep_shape_validate_completes;
    "regression: long path chain", `Quick, test_long_path_chain_fuel;
    "regression: modest instance completes", `Quick,
    test_bounded_run_completes_without_budget ]
