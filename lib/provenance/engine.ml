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
    if t.interned_terms > 0 then
      Format.fprintf ppf "@,store: %d interned term(s), %d index probe(s)"
        t.interned_terms t.store_lookups;
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

let requests_of_schema schema =
  List.map request_of_def (Schema.defs (Schema.unfold schema))

(* ---------------- planning ---------------------------------------- *)

(* Candidates live in id space.  A candidate is an id of the store's
   dictionary or, for a constant the dictionary never interned (a
   "stray": it occurs in no triple), [n_terms + k] for the plan's k-th
   stray term.  A plan's candidates are in Term order — ids are
   [Term.compare] ranks and each stray is merged in at its rank — the
   order [Term.Set.elements] gives, so chunks, and the statistics of a
   fixed [-j], are those of a term-space plan. *)
type plan = { cands : int array; strays : Term.t array; pruned : bool }

let candidate_term st plan c =
  let n = Store.n_terms st in
  if c < n then Store.term st c else plan.strays.(c - n)

(* One planner per run or validation, on the calling domain.  Target
   sets are built by marking ids in one byte per dictionary term and
   sweeping the marks in id order, so they come out ascending and
   duplicate-free with no sort.  Targets the indexes do not answer are
   decided by the verdict pass (unbudgeted, like the term-space
   planning it replaces). *)
type planner = {
  st : Store.t;
  schema : Schema.t;
  marks : Bytes.t;
  mutable lo : int;  (* the marked ids lie in [lo, hi) *)
  mutable hi : int;
  ctx : Rdf.Path.Batch.ctx Lazy.t;
  decider : Neighborhood.decider Lazy.t;
}

let planner ~schema st =
  { st; schema;
    marks = Bytes.make (Store.n_terms st) '\000';
    lo = max_int;
    hi = 0;
    ctx = lazy (Rdf.Path.Batch.create st);
    decider = lazy (Neighborhood.decider st) }

let mark pl i =
  Bytes.set pl.marks i '\001';
  if i < pl.lo then pl.lo <- i;
  if i >= pl.hi then pl.hi <- i + 1

(* The marked ids, ascending; clears the marks. *)
let take pl =
  let n = ref 0 in
  for i = pl.lo to pl.hi - 1 do
    if Bytes.get pl.marks i <> '\000' then incr n
  done;
  let out = Array.make !n 0 and k = ref 0 in
  for i = pl.lo to pl.hi - 1 do
    if Bytes.get pl.marks i <> '\000' then begin
      Bytes.set pl.marks i '\000';
      out.(!k) <- i;
      incr k
    end
  done;
  pl.lo <- max_int;
  pl.hi <- 0;
  out

(* A target set: ascending ids and the strays. *)
type targets = int array * Term.Set.t

(* Marks an interned term, or adds it to the strays. *)
let mark_term pl c strays =
  match Store.id pl.st c with
  | Some i -> mark pl i; strays
  | None -> Term.Set.add c strays

let union_targets pl ((a, x) : targets) ((b, y) : targets) : targets =
  Array.iter (mark pl) a;
  Array.iter (mark pl) b;
  (take pl, Term.Set.union x y)

let mark_rows pl col lo hi =
  for r = lo to hi - 1 do
    mark pl (col r)
  done

(* The target forms [Validate.fast_targets] answers from the indexes:
   node, class, subjects-of and objects-of targets, and unions of
   them. *)
let rec is_fast = function
  | Shape.Has_value _ | Shape.Bottom -> true
  | Shape.Ge
      ( 1,
        Rdf.Path.Seq (Rdf.Path.Prop ty, Rdf.Path.Star (Rdf.Path.Prop sub)),
        Shape.Has_value _ ) ->
      Iri.equal ty Vocab.Rdf.type_ && Iri.equal sub Vocab.Rdfs.sub_class_of
  | Shape.Ge (1, (Rdf.Path.Prop _ | Rdf.Path.Inv (Rdf.Path.Prop _)), Shape.Top)
    ->
      true
  | Shape.Or parts -> List.for_all is_fast parts
  | _ -> false

(* Marks the ids of a target [is_fast] accepts, read from store ranges;
   returns [strays] plus the target's own. *)
let rec mark_fast pl target strays =
  let st = pl.st in
  match target with
  | Shape.Has_value c -> mark_term pl c strays
  | Shape.Ge (_, Rdf.Path.Seq (Rdf.Path.Prop ty, sub), Shape.Has_value cls) -> (
      (* a class the graph never mentions has no instances *)
      match Store.id st cls, Store.pred_id st ty with
      | Some c, Some t ->
          Array.iter
            (fun c ->
              mark_rows pl (Store.pos_subj st) (Store.subjects_lo st ~p:t ~o:c)
                (Store.subjects_hi st ~p:t ~o:c))
            (Rdf.Path.Batch.eval_inv (Lazy.force pl.ctx) sub c);
          strays
      | _ -> strays)
  | Shape.Ge (_, e, _) ->
      let p, col =
        match e with
        | Rdf.Path.Inv (Rdf.Path.Prop p) -> (p, Store.pos_obj st)
        | Rdf.Path.Prop p -> (p, Store.pos_subj st)
        | _ -> invalid_arg "Engine.mark_fast"
      in
      (match Store.pred_id st p with
      | None -> ()
      | Some pid ->
          let lo, hi = Store.predicate_range st pid in
          mark_rows pl col lo hi);
      strays
  | Shape.Or parts ->
      List.fold_left (fun strays part -> mark_fast pl part strays) strays parts
  | _ -> strays

(* The members of [ids] and [strays] that conform to [tau]. *)
let filter_targets pl tau ((ids, strays) : targets) : targets =
  let v =
    Neighborhood.verdicts ~schema:pl.schema (Lazy.force pl.decider) tau
  in
  Array.iter (fun i -> if v.of_id i then mark pl i) ids;
  (take pl, Term.Set.filter v.of_term strays)

let constant_targets pl phi : targets =
  let strays =
    Term.Set.fold (mark_term pl) (Shape.constants phi) Term.Set.empty
  in
  (take pl, strays)

(* Graph nodes, ascending ids. *)
let node_targets pl : targets =
  for i = 0 to Store.n_terms pl.st - 1 do
    if Store.is_node_id pl.st i then mark pl i
  done;
  (take pl, Term.Set.empty)

(* [Validate.target_nodes] in id space: the indexes' answer, or the
   nodes and the target's constants that conform to it. *)
let target_ids pl tau =
  if is_fast tau then
    let strays = mark_fast pl tau Term.Set.empty in
    (take pl, strays)
  else
    filter_targets pl tau
      (union_targets pl (node_targets pl) (constant_targets pl tau))

(* The Term-ordered candidate array of a target set. *)
let plan_of st ~pruned ((ids, strays) : targets) =
  let strays = Array.of_list (Term.Set.elements strays) in
  let n = Store.n_terms st in
  let cands =
    if strays = [||] then ids
    else begin
      let all =
        Array.append ids (Array.init (Array.length strays) (fun k -> n + k))
      in
      let term c = if c < n then Store.term st c else strays.(c - n) in
      Array.sort (fun a b -> Term.compare (term a) (term b)) all;
      all
    end
  in
  { cands; strays; pruned }

(* The candidate set for a request, and whether target pruning applied.

   Soundness: a node contributes a (non-empty) neighborhood only when it
   conforms to the request shape.  For a schema request [phi ∧ tau] every
   conforming node conforms to [tau], so restricting candidates to the
   [tau]-nodes loses nothing; constants of the request shape that are not
   graph nodes are kept when they satisfy [tau], matching the unpruned
   candidate set of [Fragment.frag] exactly.  Monotonicity of [tau]
   (Theorem 4.1's precondition, via [Analysis.Monotone]) is required so
   the pruned fragment keeps the conformance guarantees of Section 4. *)
let plan pl r =
  match r.target with
  | Some tau when Analysis.Monotone.is_monotone pl.schema tau ->
      plan_of pl.st ~pruned:true
        (union_targets pl (target_ids pl tau)
           (filter_targets pl tau (constant_targets pl r.shape)))
  | _ ->
      plan_of pl.st ~pruned:false
        (union_targets pl (node_targets pl) (constant_targets pl r.shape))

(* An empty graph has an empty store: every candidate is then a stray. *)
let store_of g =
  match Graph.store (Graph.freeze g) with
  | Some st -> st
  | None -> Store.of_triples [||]

(* ---------------- per-worker accumulators --------------------------- *)

(* Everything a run accumulates, owned by exactly one domain at a time:
   each pool worker writes only its own record (no lock anywhere on the
   merge path), the calling domain folds the records together once
   after the pool is joined.  Result triples are a bitset over the
   frozen store's canonical SPO row ids — chunk output merges by
   bitwise OR, which is commutative, so the fragment is independent of
   scheduling by construction. *)
type 'item acc = {
  bits : Bytes.t;
  counters : Counters.t;
  conf : int array;
  walls : float array;
  mutable checked : int;
  mutable failed : ('item * exn) list;
}

let make_acc ~nrows ~nshapes =
  { bits = Bytes.make ((nrows + 7) / 8) '\000';
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

(* Split a candidate array into at most [jobs] balanced chunks, each
   with its offset in the array.  The split depends only on the array
   and [jobs], so execution statistics are deterministic for a fixed
   [-j]. *)
let chunks_of ~jobs arr =
  let n = Array.length arr in
  if n = 0 then []
  else
    let k = min jobs n in
    List.init k (fun c ->
        let lo = c * n / k and hi = (c + 1) * n / k in
        lo, Array.sub arr lo (hi - lo))
    |> List.filter (fun (_, chunk) -> Array.length chunk > 0)

let now = Unix.gettimeofday

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

(* A worker's verdict functions, one per chunk: [run] and [validate]
   build them alike.  One decider per worker is shared by every chunk it
   drains, and each chunk's verdict function starts from an empty memo
   and charges the chunk's own counters (kernel probes and their memo
   replays included), so the counters of a fixed [-j] do not depend on
   which worker drained which chunk. *)
let chunk_verdicts ~budget ~schema st =
  let d = Neighborhood.decider ~budget st in
  fun ~counters phi -> Neighborhood.verdicts ~counters ~schema d phi

(* The chunk driver [run] and [validate] share.  Each candidate array of
   [plans] is split into chunks [(shape index, offset, nodes)] that a
   pool of [jobs] workers drains from one queue.  [evaluator ()] makes a
   chunk evaluator: one per pool worker, shared by every chunk it
   drains, and a fresh one per sequential retry (a fresh kernel context
   also helps after an overflow).  An evaluator checks one chunk,
   charging the chunk's own counters and setting the rows it emits in
   the chunk's bitset, and returns how many candidates conformed.
   Returns the folded accumulator, the retry count and each shape's
   failure. *)
let drive ~jobs ~budget ~on_error ~nrows ~labels ~evaluator plans =
  let nshapes = Array.length labels in
  let items =
    List.concat
      (List.mapi
         (fun i candidates ->
           List.map
             (fun (lo, chunk) -> i, lo, chunk)
             (chunks_of ~jobs candidates))
         plans)
  in
  (* Raises on fault, budget exhaustion, or any crash inside shape
     evaluation; the caller merges the result only on success. *)
  let eval_chunk eval ((i, _, chunk) as item) =
    probe_sites labels.(i);
    Runtime.Budget.check budget;
    let t = now () in
    let bits = Bytes.make ((nrows + 7) / 8) '\000' in
    let counters = Counters.create () in
    let conforming = eval ~bits ~counters item in
    bits, counters, conforming, Array.length chunk, now () -. t
  in
  (* Lock-free: [acc] is owned by the calling worker. *)
  let merge acc (i, _, _) (bits, counters, conforming, checked, wall) =
    or_bits ~into:acc.bits bits;
    Counters.add ~into:acc.counters counters;
    acc.conf.(i) <- acc.conf.(i) + conforming;
    acc.walls.(i) <- acc.walls.(i) +. wall;
    acc.checked <- acc.checked + checked
  in
  let pop = Workers.make_queue items in
  (* One accumulator per worker: the hot path merges chunk results into
     the worker's own record without taking any lock; the records are
     folded together once after the pool is joined. *)
  let accs = Array.init jobs (fun _ -> make_acc ~nrows ~nshapes) in
  let worker w =
    let acc = accs.(w) and eval = evaluator () in
    let rec drain () =
      match pop () with
      | None -> ()
      | Some item ->
          (match eval_chunk eval item with
          | result -> merge acc item result
          | exception e -> acc.failed <- (item, e) :: acc.failed);
          drain ()
    in
    drain ()
  in
  Workers.spawn_pool ~jobs worker;
  (* Sequential degradation: retry each failed chunk once on this domain
     (faults may be transient), unless the budget is already gone — then
     skip straight to the failure verdict so a timed-out run still
     returns promptly.  The pool is joined, so this domain owns every
     accumulator; retried chunks merge into the first. *)
  let retries = ref 0 in
  let failures : Runtime.Outcome.reason option array =
    Array.make nshapes None
  in
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
          match eval_chunk (evaluator ()) item with
          | result -> merge accs.(0) item result
          | exception e' -> final_failure e'))
    (failed_of accs);
  (match on_error, !first_error with
  | `Fail, Some e -> raise e
  | _ -> ());
  fold_accs accs, !retries, failures

let stats_of ~jobs ~st ~planning ~t0 ~triples_emitted ~retries final
    shapes =
  let totals = final.counters in
  { Stats.jobs;
    nodes_checked = final.checked;
    conforming = Array.fold_left ( + ) 0 final.conf;
    memo_lookups = totals.Counters.memo_lookups;
    memo_hits = totals.Counters.memo_hits;
    memo_misses = totals.Counters.memo_misses;
    path_evals = totals.Counters.path_evals;
    triples_emitted;
    retries;
    interned_terms = Store.n_terms st;
    store_lookups = totals.Counters.store_lookups;
    batch_calls = 0;
    batch_sources = 0;
    rows_materialized = 0;
    planning;
    wall = now () -. t0;
    shapes }

(* ---------------- fragment extraction ------------------------------ *)

let run ?(schema = Schema.empty) ?(jobs = 1) ?(budget = Runtime.Budget.unlimited) ?(on_error = `Fail)
    ?(kernel = `Batched) g requests =
  let jobs = max 1 jobs in
  let t0 = now () in
  let schema = Schema.unfold schema in
  (* Freeze once up front: planning, checking and tracing all run
     against the interned store, and workers share it read-only. *)
  let g = Graph.freeze g in
  let st = store_of g in
  let nrows = Store.n_triples st and n = Store.n_terms st in
  let pl = planner ~schema st in
  let plans = List.map (fun r -> (r, plan pl r)) requests in
  let shapes = Array.of_list (List.map (fun (r, _) -> r.shape) plans) in
  let planned = Array.of_list (List.map snd plans) in
  let labels = Array.of_list (List.map (fun (r, _) -> r.label) plans) in
  let planning = now () -. t0 in
  let evaluator () =
    match kernel with
    | `Batched ->
        (* Decide, then trace: the verdict pass decides each candidate
           and the row collector ORs the neighborhood of each conforming
           one straight into the chunk bitset.  Strays occur in no
           triple: decided, never collected.  On an empty graph every
           candidate is a stray. *)
        let verdicts_of = chunk_verdicts ~budget ~schema st in
        fun ~bits ~counters (i, _, chunk) ->
          let v = verdicts_of ~counters shapes.(i) in
          Array.fold_left
            (fun conforming c ->
              if c < n then
                if v.of_id c then begin
                  v.collect c (set_bit bits);
                  conforming + 1
                end
                else conforming
              else if v.of_term (candidate_term st planned.(i) c) then
                conforming + 1
              else conforming)
            0 chunk
    | `Per_node ->
        (* The instrumented checker, one term at a time.  A neighborhood
           is a subgraph of [g], so each of its triples has a row of
           [st]. *)
        fun ~bits ~counters:_ (i, _, chunk) ->
          let check = Neighborhood.checker ~budget ~schema g shapes.(i) in
          let mark tr = set_bit bits (Option.get (Store.row_of_triple st tr)) in
          Array.fold_left
            (fun conforming c ->
              let conforms, neighborhood =
                check (candidate_term st planned.(i) c)
              in
              if conforms then begin
                Graph.iter mark neighborhood;
                conforming + 1
              end
              else conforming)
            0 chunk
  in
  let final, retries, failures =
    drive ~jobs ~budget ~on_error ~nrows ~labels ~evaluator
      (List.map (fun (_, p) -> p.cands) plans)
  in
  (* The fragment is the merged bitset's rows in ascending order —
     canonical SPO order, independent of scheduling — kept as a row view
     of the store: nothing is decoded until a reader asks. *)
  let fragment =
    let n = ref 0 in
    for r = 0 to nrows - 1 do
      if get_bit final.bits r then incr n
    done;
    let rows = Array.make !n 0 in
    let k = ref 0 in
    for r = 0 to nrows - 1 do
      if get_bit final.bits r then begin
        rows.(!k) <- r;
        incr k
      end
    done;
    Graph.of_rows st rows
  in
  let shape_stats =
    List.mapi
      (fun i (r, p) ->
        { Stats.label = r.label;
          pruned = p.pruned;
          candidates = Array.length p.cands;
          conforming = final.conf.(i);
          wall = final.walls.(i);
          failed = failures.(i) })
      plans
  in
  ( fragment,
    stats_of ~jobs ~st ~planning ~t0 ~triples_emitted:(Graph.cardinal fragment) ~retries
      final shape_stats )

let fragment ?schema ?jobs g shapes =
  fst (run ?schema ?jobs g (List.map request shapes))

let fragment_schema ?jobs schema g =
  fst (run ~schema ?jobs g (requests_of_schema schema))

(* ---------------- validation --------------------------------------- *)

let validate ?(jobs = 1) ?(budget = Runtime.Budget.unlimited)
    ?(on_error = `Fail) schema g =
  let jobs = max 1 jobs in
  let t0 = now () in
  let schema = Schema.unfold schema in
  let st = store_of g in
  let pl = planner ~schema st in
  let plans =
    Array.of_list
      (List.map
         (fun (def : Schema.def) ->
           (def, plan_of st ~pruned:true (target_ids pl def.target)))
         (Schema.defs schema))
  in
  let planning = now () -. t0 in
  let n = Store.n_terms st in
  let verdicts =
    Array.map (fun (_, p) -> Array.make (Array.length p.cands) false) plans
  in
  let labels =
    Array.map (fun ((def : Schema.def), _) -> Term.to_string def.name) plans
  in
  (* Verdict writes go to disjoint slices of [verdicts] — a chunk's
     offset places them regardless of which worker runs it — so they
     need no lock; a failed chunk's partial writes are harmless because
     a failed definition is dropped from the report wholesale. *)
  let evaluator () =
    let verdicts_of = chunk_verdicts ~budget ~schema st in
    fun ~bits:_ ~counters (i, offset, chunk) ->
      let (def : Schema.def), p = plans.(i) in
      let v = verdicts_of ~counters def.shape in
      let conforming = ref 0 in
      Array.iteri
        (fun j c ->
          let ok = if c < n then v.of_id c else v.of_term p.strays.(c - n) in
          if ok then incr conforming;
          verdicts.(i).(offset + j) <- ok)
        chunk;
      !conforming
  in
  let final, retries, failures =
    drive ~jobs ~budget ~on_error ~nrows:0 ~labels ~evaluator
      (Array.to_list (Array.map (fun (_, p) -> p.cands) plans))
  in
  (* Assemble results exactly as the sequential [Validate.validate] does:
     per definition, a [Term.Set.fold] pushing to the front — i.e. each
     definition's results in descending node order.  Definitions whose
     evaluation failed are excluded wholesale: the report covers exactly
     the definitions that were fully checked. *)
  let results =
    List.concat
      (List.mapi
         (fun i ((def : Schema.def), p) ->
           if failures.(i) <> None then []
           else begin
             let acc = ref [] in
             Array.iteri
               (fun j c ->
                 acc :=
                   { Validate.focus = candidate_term st p c;
                     shape_name = def.name;
                     conforms = verdicts.(i).(j) }
                   :: !acc)
               p.cands;
             !acc
           end)
         (Array.to_list plans))
  in
  let report =
    { Validate.conforms =
        List.for_all (fun (r : Validate.result) -> r.conforms) results;
      results }
  in
  let shape_stats =
    List.mapi
      (fun i (_, p) ->
        { Stats.label = labels.(i);
          pruned = true;
          candidates = Array.length p.cands;
          conforming = final.conf.(i);
          wall = final.walls.(i);
          failed = failures.(i) })
      (Array.to_list plans)
  in
  ( report,
    stats_of ~jobs ~st ~planning ~t0 ~triples_emitted:0 ~retries final
      shape_stats )
