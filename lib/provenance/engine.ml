open Rdf
open Shacl

type on_error = [ `Fail | `Skip ]

type kernel = [ `Batched | `Per_node ]

module Stats = struct
  type shape_stat = {
    label : string;
    pruned : bool;
    candidates : int;
    conforming : int;
    wall : float;
    failed : Runtime.Outcome.reason option;
  }

  type t = {
    jobs : int;
    nodes_checked : int;
    conforming : int;
    memo_lookups : int;
    memo_hits : int;
    memo_misses : int;
    path_evals : int;
    path_memo_lookups : int;
    path_memo_hits : int;
    path_memo_misses : int;
    triples_emitted : int;
    retries : int;
    interned_terms : int;
    store_lookups : int;
    batch_calls : int;
    batch_sources : int;
    rows_materialized : int;
    planning : float;
    wall : float;
    shapes : shape_stat list;
  }

  let degraded t = List.exists (fun s -> s.failed <> None) t.shapes

  let failed_shapes t =
    List.filter_map
      (fun s -> Option.map (fun r -> s.label, r) s.failed)
      t.shapes

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>engine: %d job(s), %d candidate(s) checked, %d conforming, %d \
       triple(s) emitted@,memo: %d lookup(s), %d hit(s), %d miss(es); %d \
       path evaluation(s)@,time: planning %.3fs, total %.3fs"
      t.jobs t.nodes_checked t.conforming t.triples_emitted t.memo_lookups
      t.memo_hits t.memo_misses t.path_evals t.planning t.wall;
    if t.path_memo_lookups > 0 then
      Format.fprintf ppf "@,path memo: %d lookup(s), %d hit(s), %d miss(es)"
        t.path_memo_lookups t.path_memo_hits t.path_memo_misses;
    if t.interned_terms > 0 then begin
      Format.fprintf ppf "@,store: %d interned term(s), %d index probe(s)"
        t.interned_terms t.store_lookups;
      if t.batch_calls > 0 then
        Format.fprintf ppf
          "; %d batch call(s), %d batched source(s), %d row(s) materialized"
          t.batch_calls t.batch_sources t.rows_materialized
    end;
    let failures = List.length (failed_shapes t) in
    if failures > 0 || t.retries > 0 then
      Format.fprintf ppf "@,degraded: %d shape(s) failed, %d chunk retry(s)"
        failures t.retries;
    List.iter
      (fun s ->
        Format.fprintf ppf "@,shape %s: %d candidate(s)%s, %d conforming, %.3fs"
          s.label s.candidates
          (if s.pruned then " (target-pruned)" else "")
          s.conforming s.wall;
        match s.failed with
        | Some reason ->
            Format.fprintf ppf ", FAILED: %a" Runtime.Outcome.pp_reason reason
        | None -> ())
      t.shapes;
    Format.fprintf ppf "@]"
end

type request = {
  label : string;
  shape : Shape.t;
  target : Shape.t option;
}

let request ?label shape =
  let label = match label with Some l -> l | None -> Shape.to_string shape in
  { label; shape; target = None }

let request_of_def (def : Schema.def) =
  { label = Term.to_string def.name;
    shape = Shape.and_ [ def.shape; def.target ];
    target = Some def.target }

let requests_of_schema schema = List.map request_of_def (Schema.defs schema)

(* ---------------- planning ---------------------------------------- *)

(* The candidate set for a request, and whether target pruning applied.

   Soundness: a node contributes a (non-empty) neighborhood only when it
   conforms to the request shape.  For a schema request [phi ∧ tau] every
   conforming node conforms to [tau], so restricting candidates to the
   [tau]-nodes loses nothing; constants of the request shape that are not
   graph nodes are kept when they satisfy [tau], matching the unpruned
   candidate set of [Fragment.frag] exactly.  Monotonicity of [tau]
   (Theorem 4.1's precondition, via [Analysis.Monotone]) is required so
   the pruned fragment keeps the conformance guarantees of Section 4. *)
let plan ~schema ~all_nodes g r =
  match r.target with
  | Some tau when Analysis.Monotone.is_monotone schema tau ->
      let base =
        match Validate.fast_targets g tau with
        | Some targets -> targets
        | None -> Conformance.conforming_nodes schema g tau
      in
      let stray_constants =
        Term.Set.filter
          (fun c -> Conformance.conforms schema g c tau)
          (Shape.constants r.shape)
      in
      Term.Set.union base stray_constants, true
  | _ -> Term.Set.union (Lazy.force all_nodes) (Shape.constants r.shape), false

(* ---------------- domain pool -------------------------------------- *)

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* A mutex-protected work queue; [pop] is the only cross-domain
   synchronization point on the hot path. *)
let make_queue items =
  let queue = ref items in
  let lock = Mutex.create () in
  fun () ->
    with_lock lock (fun () ->
        match !queue with
        | [] -> None
        | x :: rest ->
            queue := rest;
            Some x)

(* Run [worker 0 .. worker (n-1)] on [n] domains, where [n] is [jobs]
   capped at the hardware's recommended domain count — oversubscribing
   domains on fewer cores only buys stop-the-world GC barriers and OS
   timesharing (the Domain documentation advises against it).  Work
   distribution stays keyed to [jobs] (chunking happens before the
   pool), so statistics at a fixed -j do not depend on the machine;
   only which worker drains which chunk does, and the per-worker
   accumulators make that unobservable.  The index lets each worker own
   a private accumulator.  Each domain body is wrapped so that an
   exception cannot tear down the pool mid-join: every domain is always
   joined — leaving the shared queue in a consistent, released state —
   and only then is the first captured error re-raised on the calling
   domain. *)
let spawn_pool ~jobs worker =
  let n = min jobs (Domain.recommended_domain_count ()) in
  if n <= 1 then worker 0
  else
    let domains =
      List.init n (fun w ->
          Domain.spawn (fun () ->
              match worker w with () -> None | exception e -> Some e))
    in
    match List.filter_map Domain.join domains with
    | [] -> ()
    | e :: _ -> raise e

(* ---------------- per-worker accumulators --------------------------- *)

(* Everything a run accumulates, owned by exactly one domain at a time:
   each pool worker writes only its own record (no lock anywhere on the
   merge path), the calling domain folds the records together once
   after the pool is joined.  Result triples are a bitset over the
   frozen store's canonical SPO row ids — chunk output merges by
   bitwise OR, which is commutative, so the fragment is independent of
   scheduling by construction.  [extra] catches triples with no row id
   (only possible when the graph has no store, i.e. it is empty). *)
type 'item acc = {
  bits : Bytes.t;
  extra : (Triple.t, unit) Hashtbl.t;
  counters : Counters.t;
  conf : int array;
  walls : float array;
  mutable checked : int;
  mutable failed : ('item * exn) list;
}

let make_acc ~nrows ~nshapes =
  { bits = Bytes.make ((nrows + 7) / 8) '\000';
    extra = Hashtbl.create 16;
    counters = Counters.create ();
    conf = Array.make nshapes 0;
    walls = Array.make nshapes 0.0;
    checked = 0;
    failed = [] }

let or_bits ~into b =
  for k = 0 to Bytes.length into - 1 do
    Bytes.unsafe_set into k
      (Char.unsafe_chr
         (Char.code (Bytes.unsafe_get into k)
         lor Char.code (Bytes.unsafe_get b k)))
  done

let set_bit b r =
  let k = r lsr 3 in
  Bytes.unsafe_set b k
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b k) lor (1 lsl (r land 7))))

let get_bit b r = Char.code (Bytes.unsafe_get b (r lsr 3)) land (1 lsl (r land 7)) <> 0

(* Fold every worker's accumulator into the first one (the calling
   domain owns them all once the pool is joined). *)
let fold_accs accs =
  let final = accs.(0) in
  Array.iteri
    (fun w a ->
      if w > 0 then begin
        or_bits ~into:final.bits a.bits;
        Hashtbl.iter (fun tr () -> Hashtbl.replace final.extra tr ()) a.extra;
        Counters.add ~into:final.counters a.counters;
        Array.iteri (fun i c -> final.conf.(i) <- final.conf.(i) + c) a.conf;
        Array.iteri (fun i t -> final.walls.(i) <- final.walls.(i) +. t) a.walls;
        final.checked <- final.checked + a.checked
      end)
    accs;
  final

(* Failed chunks of all workers, restored to arrival order per worker. *)
let failed_of accs =
  List.concat_map (fun a -> List.rev a.failed) (Array.to_list accs)

(* Split a candidate array into at most [jobs] balanced chunks.  The
   split depends only on the array and [jobs], so execution statistics
   are deterministic for a fixed [-j]. *)
let chunks_of ~jobs arr =
  let n = Array.length arr in
  if n = 0 then []
  else
    let k = min jobs n in
    List.init k (fun c ->
        let lo = c * n / k and hi = (c + 1) * n / k in
        Array.sub arr lo (hi - lo))
    |> List.filter (fun chunk -> Array.length chunk > 0)

let now = Unix.gettimeofday

(* ---------------- batched priming ----------------------------------- *)

(* Collect, in deterministic order, the (path, focus-node set) pairs a
   set of shapes will evaluate: the focus paths of each shape paired
   with its candidate array, unioned across shapes per path.  Only
   paths the memo layer caches are kept. *)
let collect_prime_items pairs =
  let nodes_of : (Rdf.Path.t, Term.Set.t ref) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (paths, candidates) ->
      List.iter
        (fun e ->
          if Path_memo.worth_memoizing e then begin
            let add set =
              Array.fold_left (fun s v -> Term.Set.add v s) set candidates
            in
            match Hashtbl.find_opt nodes_of e with
            | Some set -> set := add !set
            | None ->
                Hashtbl.add nodes_of e (ref (add Term.Set.empty));
                order := e :: !order
          end)
        paths)
    pairs;
  List.rev_map
    (fun e ->
      let set = !(Hashtbl.find nodes_of e) in
      (e, Array.of_list (Term.Set.elements set)))
    !order

(* Fill [base] with one batched-kernel evaluation per (path, node set),
   parallelized over paths: each worker primes into a private base
   merged after the pool joins (per-(graph, path) tables are disjoint
   across items, so the merge is a plain union).  Priming charges the
   budget exactly what per-node evaluation of the same (path, node)
   pairs would; on exhaustion the phase stops with a partial base and
   the chunks that needed the missing fuel fail at their own budget
   checks, as they would have unprimed. *)
let prime_base ~jobs ~budget ~into_counters base g items =
  match items with
  | [] -> ()
  | _ ->
      let pop = make_queue items in
      let n = max 1 jobs in
      let worker_bases = Array.init n (fun _ -> Path_memo.base_create ()) in
      let worker_counters = Array.init n (fun _ -> Counters.create ()) in
      let worker w =
        let wb = worker_bases.(w) and wc = worker_counters.(w) in
        let rec drain () =
          match pop () with
          | None -> ()
          | Some (e, nodes) ->
              Path_memo.prime ~counters:wc wb budget g e nodes;
              drain ()
        in
        try drain () with Runtime.Budget.Exhausted _ -> ()
      in
      spawn_pool ~jobs:n worker;
      Array.iter (fun wb -> Path_memo.base_merge ~into:base wb) worker_bases;
      Array.iter
        (fun wc -> Counters.add ~into:into_counters wc)
        worker_counters

(* Id-space priming for the rows pipeline: the same (path, node set)
   items, evaluated in per-worker kernel contexts whose memos are then
   exported into one shared read-only [Rdf.Path.Batch.base].  Worker
   contexts adopt primed entries on first touch and replay their
   recorded charges, so budget and counter totals stay exactly what
   per-node evaluation of the same pairs would have charged.  Stray
   nodes the dictionary has never seen are left to the checkers'
   per-node fallback. *)
let prime_row_base ~jobs ~budget ~into_counters base st items =
  match items with
  | [] -> ()
  | _ ->
      let pop = make_queue items in
      let n = max 1 jobs in
      let worker_bases =
        Array.init n (fun _ -> Rdf.Path.Batch.base_create ())
      in
      let worker_counters = Array.init n (fun _ -> Counters.create ()) in
      let worker w =
        let wc = worker_counters.(w) in
        let step =
          if Runtime.Budget.is_unlimited budget then None
          else Some (Runtime.Budget.step_hook budget)
        in
        let ctx =
          Rdf.Path.Batch.create ?step
            ~lookup:(fun () ->
              wc.Counters.store_lookups <- wc.Counters.store_lookups + 1)
            ~lookup_n:(fun k ->
              wc.Counters.store_lookups <- wc.Counters.store_lookups + k)
            st
        in
        let rec drain () =
          match pop () with
          | None -> ()
          | Some (e, nodes) ->
              let sources =
                Array.to_list nodes |> List.filter_map (Store.id st)
              in
              if sources <> [] then begin
                let before = Rdf.Path.Batch.memo_size ctx in
                List.iter
                  (fun vid -> ignore (Rdf.Path.Batch.eval ctx e vid))
                  sources;
                wc.Counters.batch_calls <- wc.Counters.batch_calls + 1;
                wc.Counters.batch_sources <-
                  wc.Counters.batch_sources + List.length sources;
                wc.Counters.rows_materialized <-
                  wc.Counters.rows_materialized
                  + (Rdf.Path.Batch.memo_size ctx - before)
              end;
              drain ()
        in
        (try drain () with Runtime.Budget.Exhausted _ -> ());
        Rdf.Path.Batch.export ctx ~into:worker_bases.(w)
      in
      spawn_pool ~jobs:n worker;
      Array.iter
        (fun wb -> Rdf.Path.Batch.base_merge ~into:base wb)
        worker_bases;
      Array.iter
        (fun wc -> Counters.add ~into:into_counters wc)
        worker_counters

(* ---------------- fault isolation ---------------------------------- *)

(* Chunks are the engine's isolation unit: a chunk is evaluated into
   private accumulators that are merged only on success, so a chunk that
   raises — injected fault, exhausted budget, stack overflow on an
   adversarial schema — contributes nothing and poisons nothing.  The
   Sufficiency theorem makes the surviving output meaningful: every
   neighborhood a completed chunk emitted is independently valid.

   Degradation order on failure:
   1. the failing chunk is recorded and the pool keeps draining;
   2. after the pool is joined, each failed chunk is retried once,
      sequentially, on the calling domain (parallel → sequential
      degradation) — unless the run's budget is already spent;
   3. a chunk that fails its retry marks its shape as Failed in the
      statistics; with [`Skip] the run completes with the healthy
      shapes' fragments, with [`Fail] the original error is re-raised
      (after the pool is fully joined and consistent). *)

let probe_sites label =
  Runtime.Fault.probe "engine.chunk";
  Runtime.Fault.probe ("shape:" ^ label)

(* ---------------- fragment extraction ------------------------------ *)

let run ?(schema = Schema.empty) ?(algorithm = Fragment.Instrumented)
    ?(jobs = 1) ?(budget = Runtime.Budget.unlimited) ?(on_error = `Fail)
    ?(kernel = `Batched) ?restrict g requests =
  let jobs = max 1 jobs in
  let t0 = now () in
  (* Freeze once up front: planning, checking and tracing all run
     against the interned store, and workers share it read-only. *)
  let g = Graph.freeze g in
  let store = Graph.store g in
  let nrows = match store with Some st -> Store.n_triples st | None -> 0 in
  let all_nodes = lazy (Graph.nodes g) in
  (* [restrict] narrows the *candidate* set, not the graph: each kept
     candidate is still checked against the whole graph, so a shard
     worker's answer is exact over the nodes it owns and the union over
     a partition of the node space is exactly the unrestricted run. *)
  let restrict_list l =
    match restrict with None -> l | Some keep -> List.filter keep l
  in
  let plans =
    List.map
      (fun r ->
        let candidates, pruned = plan ~schema ~all_nodes g r in
        ( r,
          Array.of_list (restrict_list (Term.Set.elements candidates)),
          pruned ))
      requests
  in
  let shapes = Array.of_list (List.map (fun (r, _, _) -> r.shape) plans) in
  let labels = Array.of_list (List.map (fun (r, _, _) -> r.label) plans) in
  let nshapes = Array.length shapes in
  let planning = now () -. t0 in
  (* Batched kernel: evaluate each distinct (path, candidate set) of the
     planned shapes once, set-at-a-time, into the kernel's id-space base
     shared read-only by every worker's context.  Only the instrumented
     rows pipeline uses it; the per-node pipelines (the naive algorithm,
     or a graph with no store) evaluate node at a time. *)
  let prime_counters = Counters.create () in
  let use_rows =
    kernel = `Batched && store <> None && algorithm = Fragment.Instrumented
  in
  let row_base =
    match use_rows, store with
    | true, Some st ->
        let b = Rdf.Path.Batch.base_create () in
        prime_row_base ~jobs ~budget ~into_counters:prime_counters b st
          (collect_prime_items
             (List.mapi
                (fun i (_, candidates, _) ->
                  (Conformance.focus_paths schema shapes.(i), candidates))
                plans));
        Some b
    | _ -> None
  in
  let items =
    List.concat
      (List.mapi
         (fun i (_, candidates, _) ->
           List.map (fun chunk -> i, chunk) (chunks_of ~jobs candidates))
         plans)
  in
  let pop = make_queue items in
  (* One accumulator per worker: the hot path merges chunk results into
     the worker's own record without taking any lock; the records are
     folded together once after the pool is joined. *)
  let accs = Array.init jobs (fun _ -> make_acc ~nrows ~nshapes) in
  let retries = ref 0 in
  let failures : Runtime.Outcome.reason option array = Array.make nshapes None in
  (* Evaluate one chunk into private accumulators; raises on fault,
     budget exhaustion, or any crash inside shape evaluation.  Emitted
     triples become bits in a chunk-local row bitset: a neighborhood is
     a subgraph of [g], so on a frozen graph every triple has a row. *)
  let eval_chunk ?env_for (i, chunk) =
    probe_sites labels.(i);
    Runtime.Budget.check budget;
    let t = now () in
    let bits = Bytes.make ((nrows + 7) / 8) '\000' in
    let extra = ref [] in
    let mark tr =
      match store with
      | Some st -> (
          match Store.row_of_triple st tr with
          | Some r -> set_bit bits r
          | None -> extra := tr :: !extra)
      | None -> extra := tr :: !extra
    in
    let counters = Counters.create () in
    let conforming = ref 0 in
    (if use_rows then begin
       (* row neighborhoods OR straight into the chunk bitset — no
          [Graph.t] is ever materialized on the hot path.  [env_for]
          retargets the worker's shared kernel context at this chunk's
          counters; kernel memo hits replay the recorded charges, so
          per-chunk statistics are identical whether an entry was
          computed in this chunk, an earlier one, or the priming
          phase. *)
       let env =
         match env_for with
         | Some f -> f counters
         | None -> Neighborhood.row_env ~budget ~counters ?base:row_base g
       in
       let check =
         Neighborhood.row_checker ~counters ~budget ~schema ~env g shapes.(i)
       in
       Array.iter
         (fun v ->
           let conforms, rows = check v in
           if conforms then begin
             incr conforming;
             Array.iter (fun r -> set_bit bits r) rows
           end)
         chunk
     end
     else begin
       let check =
         match algorithm with
         | Fragment.Instrumented ->
             Neighborhood.checker ~counters ~budget ~schema g shapes.(i)
         | Fragment.Naive ->
             Neighborhood.naive_checker ~counters ~budget ~schema g shapes.(i)
       in
       Array.iter
         (fun v ->
           let conforms, neighborhood = check v in
           if conforms then begin
             incr conforming;
             Graph.iter mark neighborhood
           end)
         chunk
     end);
    bits, !extra, counters, !conforming, Array.length chunk, now () -. t
  in
  (* Lock-free: [acc] is owned by the calling worker. *)
  let merge acc (i, _chunk)
      (bits, extra, counters, chunk_conforming, chunk_checked, wall) =
    or_bits ~into:acc.bits bits;
    List.iter (fun tr -> Hashtbl.replace acc.extra tr ()) extra;
    Counters.add ~into:acc.counters counters;
    acc.conf.(i) <- acc.conf.(i) + chunk_conforming;
    acc.walls.(i) <- acc.walls.(i) +. wall;
    acc.checked <- acc.checked + chunk_checked
  in
  let worker w =
    let acc = accs.(w) in
    (* one id-space kernel context per worker, shared across every chunk
       — and shape — it drains; the lookup hook charges whichever
       chunk's counters are current *)
    let env_for =
      if use_rows then begin
        let cur = ref None in
        let env =
          Neighborhood.row_env ~budget
            ~lookup:(fun () ->
              match !cur with
              | Some c ->
                  c.Counters.store_lookups <- c.Counters.store_lookups + 1
              | None -> ())
            ~lookup_n:(fun k ->
              match !cur with
              | Some c ->
                  c.Counters.store_lookups <- c.Counters.store_lookups + k
              | None -> ())
            ?base:row_base g
        in
        Some
          (fun counters ->
            cur := Some counters;
            env)
      end
      else None
    in
    let rec drain () =
      match pop () with
      | None -> ()
      | Some item ->
          (match eval_chunk ?env_for item with
          | result -> merge acc item result
          | exception e -> acc.failed <- (item, e) :: acc.failed);
          drain ()
    in
    drain ()
  in
  spawn_pool ~jobs worker;
  (* Sequential degradation: retry each failed chunk once on this domain
     (faults may be transient; a fresh kernel context also helps after
     an overflow), unless the budget is already gone — then skip
     straight to the failure verdict so a timed-out run still returns
     promptly.  The pool is joined, so this domain owns every
     accumulator; retried chunks merge into the first. *)
  let first_error = ref None in
  List.iter
    (fun (((i, _) as item), e) ->
      let final_failure e =
        if !first_error = None then first_error := Some e;
        if failures.(i) = None then
          failures.(i) <- Some (Runtime.Outcome.reason_of_exn e)
      in
      match Runtime.Budget.expired budget with
      | Some _ -> final_failure e
      | None -> (
          incr retries;
          match eval_chunk item with
          | result -> merge accs.(0) item result
          | exception e' -> final_failure e'))
    (failed_of accs);
  (match on_error, !first_error with
  | `Fail, Some e -> raise e
  | _ -> ());
  let final = fold_accs accs in
  Counters.add ~into:final.counters prime_counters;
  let totals = final.counters in
  (* The fragment is decoded from the merged bitset in ascending row
     order — canonical SPO order, independent of scheduling. *)
  let emitted = ref 0 in
  let fragment =
    let frag = ref Graph.empty in
    (match store with
    | Some st ->
        for r = 0 to nrows - 1 do
          if get_bit final.bits r then begin
            incr emitted;
            frag := Graph.add_triple (Store.row_triple st r) !frag
          end
        done
    | None -> ());
    Hashtbl.iter
      (fun tr () ->
        incr emitted;
        frag := Graph.add_triple tr !frag)
      final.extra;
    !frag
  in
  let shape_stats =
    List.mapi
      (fun i (r, candidates, pruned) ->
        { Stats.label = r.label;
          pruned;
          candidates = Array.length candidates;
          conforming = final.conf.(i);
          wall = final.walls.(i);
          failed = failures.(i) })
      plans
  in
  let stats =
    { Stats.jobs;
      nodes_checked = final.checked;
      conforming = Array.fold_left ( + ) 0 final.conf;
      memo_lookups = totals.Counters.memo_lookups;
      memo_hits = totals.Counters.memo_hits;
      memo_misses = totals.Counters.memo_misses;
      path_evals = totals.Counters.path_evals;
      path_memo_lookups = totals.Counters.path_memo_lookups;
      path_memo_hits = totals.Counters.path_memo_hits;
      path_memo_misses = totals.Counters.path_memo_misses;
      triples_emitted = !emitted;
      retries = !retries;
      interned_terms = (match store with Some st -> Store.n_terms st | None -> 0);
      store_lookups = totals.Counters.store_lookups;
      batch_calls = totals.Counters.batch_calls;
      batch_sources = totals.Counters.batch_sources;
      rows_materialized = totals.Counters.rows_materialized;
      planning;
      wall = now () -. t0;
      shapes = shape_stats }
  in
  fragment, stats

let fragment ?schema ?algorithm ?jobs g shapes =
  fst (run ?schema ?algorithm ?jobs g (List.map request shapes))

let fragment_schema ?algorithm ?jobs schema g =
  fst (run ~schema ?algorithm ?jobs g (requests_of_schema schema))

(* ---------------- validation --------------------------------------- *)

let validate ?(jobs = 1) ?(budget = Runtime.Budget.unlimited)
    ?(on_error = `Fail) ?(kernel = `Batched) ?restrict schema g =
  let jobs = max 1 jobs in
  let t0 = now () in
  let g = Graph.freeze g in
  let store = Graph.store g in
  (* same contract as [run]: owned targets only, checked against the
     whole graph *)
  let plans =
    List.map
      (fun (def : Schema.def) ->
        let nodes = Term.Set.elements (Validate.target_nodes schema g def) in
        let nodes =
          match restrict with
          | None -> nodes
          | Some keep -> List.filter keep nodes
        in
        def, Array.of_list nodes)
      (Schema.defs schema)
  in
  let planning = now () -. t0 in
  let plans_arr = Array.of_list plans in
  let ndefs = Array.length plans_arr in
  let verdicts =
    Array.map (fun (_, targets) -> Array.make (Array.length targets) false)
      plans_arr
  in
  (* One accumulator per worker: each worker touches only its own
     record — no lock on the merge path. *)
  let accs = Array.init jobs (fun _ -> make_acc ~nrows:0 ~nshapes:ndefs) in
  let retries = ref 0 in
  let failures : Runtime.Outcome.reason option array = Array.make ndefs None in
  let label_of i =
    let (def : Schema.def), _ = plans_arr.(i) in
    Term.to_string def.Schema.name
  in
  (* Batched kernel: every (shape focus path × target array) pair is
     primed set-at-a-time into one shared base before the pool runs;
     each chunk then gets its own memo table over the base, so chunk
     statistics do not depend on which worker drained which chunk. *)
  let prime_counters = Counters.create () in
  let base =
    match kernel, store with
    | `Batched, Some _ ->
        let b = Path_memo.base_create () in
        prime_base ~jobs ~budget ~into_counters:prime_counters b g
          (collect_prime_items
             (List.map
                (fun ((def : Schema.def), targets) ->
                  (Conformance.focus_paths schema def.Schema.shape, targets))
                plans));
        Some b
    | _ -> None
  in
  (* Verdict writes go to disjoint slices of [verdicts], so they need no
     lock; a failed chunk's partial writes are harmless because a failed
     definition is dropped from the report wholesale. *)
  let eval_chunk (i, offset, chunk) =
    probe_sites (label_of i);
    Runtime.Budget.check budget;
    let t = now () in
    let def, _ = plans_arr.(i) in
    let counters = Counters.create () in
    let path_memo = Option.map (fun base -> Path_memo.create ~base ()) base in
    let check =
      Conformance.checker ~counters ~budget ?path_memo schema g
        def.Schema.shape
    in
    let conforming = ref 0 in
    Array.iteri
      (fun j v ->
        let ok = check v in
        if ok then incr conforming;
        verdicts.(i).(offset + j) <- ok)
      chunk;
    counters, !conforming, Array.length chunk, now () -. t
  in
  let merge acc (i, _, _) (counters, chunk_conforming, chunk_checked, wall) =
    Counters.add ~into:acc.counters counters;
    acc.conf.(i) <- acc.conf.(i) + chunk_conforming;
    acc.walls.(i) <- acc.walls.(i) +. wall;
    acc.checked <- acc.checked + chunk_checked
  in
  let items =
    List.concat
      (List.mapi
         (fun i (_, targets) ->
           (* chunks carry their offset so verdicts land at the right
              index regardless of which worker runs them *)
           let n = Array.length targets in
           if n = 0 then []
           else
             let k = min jobs n in
             List.init k (fun c ->
                 let lo = c * n / k and hi = (c + 1) * n / k in
                 i, lo, Array.sub targets lo (hi - lo))
             |> List.filter (fun (_, _, chunk) -> Array.length chunk > 0))
         plans)
  in
  let pop = make_queue items in
  let worker w =
    let acc = accs.(w) in
    let rec drain () =
      match pop () with
      | None -> ()
      | Some item ->
          (match eval_chunk item with
          | result -> merge acc item result
          | exception e -> acc.failed <- (item, e) :: acc.failed);
          drain ()
    in
    drain ()
  in
  spawn_pool ~jobs worker;
  let first_error = ref None in
  List.iter
    (fun (((i, _, _) as item), e) ->
      let final_failure e =
        if !first_error = None then first_error := Some e;
        if failures.(i) = None then
          failures.(i) <- Some (Runtime.Outcome.reason_of_exn e)
      in
      match Runtime.Budget.expired budget with
      | Some _ -> final_failure e
      | None -> (
          incr retries;
          match eval_chunk item with
          | result -> merge accs.(0) item result
          | exception e' -> final_failure e'))
    (failed_of accs);
  (match on_error, !first_error with
  | `Fail, Some e -> raise e
  | _ -> ());
  let final = fold_accs accs in
  Counters.add ~into:final.counters prime_counters;
  let totals = final.counters in
  (* Assemble results exactly as the sequential [Validate.validate] does:
     per definition, a [Term.Set.fold] pushing to the front — i.e. each
     definition's results in descending node order.  Definitions whose
     evaluation failed are excluded wholesale: the report covers exactly
     the definitions that were fully checked. *)
  let results =
    List.concat
      (List.mapi
         (fun i ((def : Schema.def), targets) ->
           if failures.(i) <> None then []
           else begin
             let acc = ref [] in
             Array.iteri
               (fun j focus ->
                 acc :=
                   { Validate.focus;
                     shape_name = def.name;
                     conforms = verdicts.(i).(j) }
                   :: !acc)
               targets;
             !acc
           end)
         plans)
  in
  let report =
    { Validate.conforms =
        List.for_all (fun (r : Validate.result) -> r.conforms) results;
      results }
  in
  let shape_stats =
    List.mapi
      (fun i ((def : Schema.def), targets) ->
        { Stats.label = Term.to_string def.name;
          pruned = true;
          candidates = Array.length targets;
          conforming = final.conf.(i);
          wall = final.walls.(i);
          failed = failures.(i) })
      plans
  in
  let stats =
    { Stats.jobs;
      nodes_checked = final.checked;
      conforming = Array.fold_left ( + ) 0 final.conf;
      memo_lookups = totals.Counters.memo_lookups;
      memo_hits = totals.Counters.memo_hits;
      memo_misses = totals.Counters.memo_misses;
      path_evals = totals.Counters.path_evals;
      path_memo_lookups = totals.Counters.path_memo_lookups;
      path_memo_hits = totals.Counters.path_memo_hits;
      path_memo_misses = totals.Counters.path_memo_misses;
      triples_emitted = 0;
      retries = !retries;
      interned_terms = (match store with Some st -> Store.n_terms st | None -> 0);
      store_lookups = totals.Counters.store_lookups;
      batch_calls = totals.Counters.batch_calls;
      batch_sources = totals.Counters.batch_sources;
      rows_materialized = totals.Counters.rows_materialized;
      planning;
      wall = now () -. t0;
      shapes = shape_stats }
  in
  report, stats
