type t =
  | Prop of Iri.t
  | Inv of t
  | Seq of t * t
  | Alt of t * t
  | Star of t
  | Opt of t

let prop s = Prop (Iri.of_string s)

let rec of_nonempty mk = function
  | [] -> invalid_arg "Path: empty list"
  | [ e ] -> e
  | e :: rest -> mk e (of_nonempty mk rest)

let seq_list es = of_nonempty (fun a b -> Seq (a, b)) es
let alt_list es = of_nonempty (fun a b -> Alt (a, b)) es
let plus e = Seq (e, Star e)

let rec equal a b =
  match a, b with
  | Prop p, Prop q -> Iri.equal p q
  | Inv x, Inv y | Star x, Star y | Opt x, Opt y -> equal x y
  | Seq (x1, x2), Seq (y1, y2) | Alt (x1, x2), Alt (y1, y2) ->
      equal x1 y1 && equal x2 y2
  | (Prop _ | Inv _ | Seq _ | Alt _ | Star _ | Opt _), _ -> false

let compare = Stdlib.compare

(* Fixpoint closure of a one-step function, starting from [seeds].
   Returns all nodes reachable in >= 0 steps. *)
let closure step seeds =
  let rec loop visited frontier =
    if Term.Set.is_empty frontier then visited
    else
      let next =
        Term.Set.fold
          (fun x acc -> Term.Set.union acc (step x))
          frontier Term.Set.empty
      in
      let fresh = Term.Set.diff next visited in
      loop (Term.Set.union visited fresh) fresh
  in
  loop seeds seeds

(* [step] is invoked once per path-operator application, including each
   re-evaluation of a sub-path at a new node; callers use it to charge
   evaluation budgets proportionally to the work actually done (and to
   interrupt adversarially deep path expressions before the recursion
   gets anywhere near the stack limit).  [lookup] is invoked once per
   adjacency-index probe (a [Prop]/[Inv Prop] application at one node),
   so instrumented callers can report index traffic.

   [visit] is invoked with the {e anchor term} of every adjacency-index
   probe — the node at which a forward probe ([Graph.objects g a p]) or
   an inverse probe ([Graph.subjects g p b]) is rooted.  The set of
   anchors is a sound dependency set for the evaluation: a triple
   (s, p, o) can only change the result of forward probes anchored at
   [s] and inverse probes anchored at [o], so an evaluation whose
   anchors avoid both endpoints of every changed triple returns the
   same set on the updated graph.  The incremental engine records
   anchors to decide which verdicts a delta can affect.

   Two interchangeable cores compute [[E]](a).  The map core walks the
   graph's persistent indexes on terms.  The interned core — used when
   the graph has been [Graph.freeze]d — runs the same recursion on
   dense int ids over the frozen store's sorted-array indexes, and
   decodes back to terms only at the result boundary.  Ids are assigned
   in [Term.compare] order, so both cores visit nodes in the same
   order, call [step]/[lookup] identically, and agree exactly; the
   interned core replaces every term comparison (string and literal
   compares) on the hot path with an int comparison.  When a [visit]
   hook is present the map core is used unconditionally — the hook
   needs the anchor as a term, and decoding ids probe-by-probe would
   cost the interned core its advantage. *)
let rec eval_maps ~step ~lookup ~visit g e a =
  step ();
  match e with
  | Prop p ->
      lookup ();
      visit a;
      Graph.objects g a p
  | Inv e -> eval_inv_maps ~step ~lookup ~visit g e a
  | Seq (e1, e2) ->
      Term.Set.fold
        (fun m acc -> Term.Set.union acc (eval_maps ~step ~lookup ~visit g e2 m))
        (eval_maps ~step ~lookup ~visit g e1 a)
        Term.Set.empty
  | Alt (e1, e2) ->
      Term.Set.union
        (eval_maps ~step ~lookup ~visit g e1 a)
        (eval_maps ~step ~lookup ~visit g e2 a)
  | Opt e -> Term.Set.add a (eval_maps ~step ~lookup ~visit g e a)
  | Star e ->
      closure (fun x -> eval_maps ~step ~lookup ~visit g e x) (Term.Set.singleton a)

and eval_inv_maps ~step ~lookup ~visit g e b =
  step ();
  match e with
  | Prop p ->
      lookup ();
      visit b;
      Graph.subjects g p b
  | Inv e -> eval_maps ~step ~lookup ~visit g e b
  | Seq (e1, e2) ->
      Term.Set.fold
        (fun m acc -> Term.Set.union acc (eval_inv_maps ~step ~lookup ~visit g e1 m))
        (eval_inv_maps ~step ~lookup ~visit g e2 b)
        Term.Set.empty
  | Alt (e1, e2) ->
      Term.Set.union
        (eval_inv_maps ~step ~lookup ~visit g e1 b)
        (eval_inv_maps ~step ~lookup ~visit g e2 b)
  | Opt e -> Term.Set.add b (eval_inv_maps ~step ~lookup ~visit g e b)
  | Star e ->
      closure (fun x -> eval_inv_maps ~step ~lookup ~visit g e x) (Term.Set.singleton b)

(* ---------------- interned core ------------------------------------ *)

module IdSet = Set.Make (Int)

let closure_ids step seeds =
  let rec loop visited frontier =
    if IdSet.is_empty frontier then visited
    else
      let next =
        IdSet.fold (fun x acc -> IdSet.union acc (step x)) frontier IdSet.empty
      in
      let fresh = IdSet.diff next visited in
      loop (IdSet.union visited fresh) fresh
  in
  loop seeds seeds

let objects_ids st pid a =
  let lo, hi = Store.objects_range st ~s:a ~p:pid in
  let acc = ref IdSet.empty in
  for i = lo to hi - 1 do
    acc := IdSet.add (Store.spo_obj st i) !acc
  done;
  !acc

let subjects_ids st pid b =
  let lo, hi = Store.subjects_range st ~p:pid ~o:b in
  let acc = ref IdSet.empty in
  for i = lo to hi - 1 do
    acc := IdSet.add (Store.pos_subj st i) !acc
  done;
  !acc

let rec eval_ids ~step ~lookup st e a =
  step ();
  match e with
  | Prop p -> (
      lookup ();
      match Store.pred_id st p with
      | None -> IdSet.empty
      | Some pid -> objects_ids st pid a)
  | Inv e -> eval_inv_ids ~step ~lookup st e a
  | Seq (e1, e2) ->
      IdSet.fold
        (fun m acc -> IdSet.union acc (eval_ids ~step ~lookup st e2 m))
        (eval_ids ~step ~lookup st e1 a)
        IdSet.empty
  | Alt (e1, e2) ->
      IdSet.union (eval_ids ~step ~lookup st e1 a) (eval_ids ~step ~lookup st e2 a)
  | Opt e -> IdSet.add a (eval_ids ~step ~lookup st e a)
  | Star e ->
      closure_ids (fun x -> eval_ids ~step ~lookup st e x) (IdSet.singleton a)

and eval_inv_ids ~step ~lookup st e b =
  step ();
  match e with
  | Prop p -> (
      lookup ();
      match Store.pred_id st p with
      | None -> IdSet.empty
      | Some pid -> subjects_ids st pid b)
  | Inv e -> eval_ids ~step ~lookup st e b
  | Seq (e1, e2) ->
      IdSet.fold
        (fun m acc -> IdSet.union acc (eval_inv_ids ~step ~lookup st e1 m))
        (eval_inv_ids ~step ~lookup st e2 b)
        IdSet.empty
  | Alt (e1, e2) ->
      IdSet.union
        (eval_inv_ids ~step ~lookup st e1 b)
        (eval_inv_ids ~step ~lookup st e2 b)
  | Opt e -> IdSet.add b (eval_inv_ids ~step ~lookup st e b)
  | Star e ->
      closure_ids (fun x -> eval_inv_ids ~step ~lookup st e x) (IdSet.singleton b)

(* Ids are term-ordered, so the ascending fold decodes to an ascending
   insertion sequence. *)
let decode st ids =
  IdSet.fold (fun i acc -> Term.Set.add (Store.term st i) acc) ids Term.Set.empty

(* ---------------- dispatch ----------------------------------------- *)

(* Bare [p] / [p⁻] stay on the persistent maps even when frozen: the
   map answers with a shared, already-built set (no allocation at all),
   which beats decoding a store range.  Compound paths on a frozen
   graph run entirely in id space.  A start node the dictionary has
   never seen falls back to the map core (all its adjacency lookups
   answer empty there, so the call is cheap). *)
let ignore_term (_ : Term.t) = ()

let eval ?(step = ignore) ?(lookup = ignore) ?visit g e a =
  match e with
  | Prop p ->
      step ();
      lookup ();
      (match visit with Some f -> f a | None -> ());
      Graph.objects g a p
  | Inv (Prop p) ->
      step ();
      step ();
      lookup ();
      (match visit with Some f -> f a | None -> ());
      Graph.subjects g p a
  | _ -> (
      match visit with
      | Some visit -> eval_maps ~step ~lookup ~visit g e a
      | None -> (
          match Graph.store g with
          | Some st -> (
              match Store.id st a with
              | Some aid -> decode st (eval_ids ~step ~lookup st e aid)
              | None -> eval_maps ~step ~lookup ~visit:ignore_term g e a)
          | None -> eval_maps ~step ~lookup ~visit:ignore_term g e a))

and eval_inv ?(step = ignore) ?(lookup = ignore) ?visit g e b =
  match e with
  | Prop p ->
      step ();
      lookup ();
      (match visit with Some f -> f b | None -> ());
      Graph.subjects g p b
  | Inv (Prop p) ->
      step ();
      step ();
      lookup ();
      (match visit with Some f -> f b | None -> ());
      Graph.objects g b p
  | _ -> (
      match visit with
      | Some visit -> eval_inv_maps ~step ~lookup ~visit g e b
      | None -> (
          match Graph.store g with
          | Some st -> (
              match Store.id st b with
              | Some bid -> decode st (eval_inv_ids ~step ~lookup st e bid)
              | None -> eval_inv_maps ~step ~lookup ~visit:ignore_term g e b)
          | None -> eval_inv_maps ~step ~lookup ~visit:ignore_term g e b))

let holds g e a b = Term.Set.mem b (eval g e a)

let pairs g e =
  let ns = Graph.nodes g in
  (* Identity pairs are restricted to N(G); Star/Opt starting points beyond
     N(G) cannot reach anything anyway. *)
  Term.Set.fold
    (fun a acc ->
      Term.Set.fold
        (fun b acc -> if Term.Set.mem b ns then (a, b) :: acc else acc)
        (eval g e a) acc)
    ns []

let eval_set ?step ?visit g e sources =
  Term.Set.fold
    (fun a acc -> Term.Set.union acc (eval ?step ?visit g e a))
    sources Term.Set.empty

let eval_inv_set ?step ?visit g e targets =
  Term.Set.fold
    (fun b acc -> Term.Set.union acc (eval_inv ?step ?visit g e b))
    targets Term.Set.empty

(* trace_set computes, in one pass per path operator,
     ⋃ { graph(paths(E, G, a, b)) | a ∈ sources, b ∈ targets }.
   The per-pair definition distributes over this union: for a sequence,
   every connecting midpoint lies in (E1-image of sources) ∩ (E2-preimage
   of targets), and each contributed leg belongs to some valid (a, b)
   pair; similarly for star via the forward/backward reachability zones
   (cf. the Q construction of Lemma 5.1). *)
let rec trace_set ?(step = ignore) ?visit g e ~sources ~targets =
  step ();
  if Term.Set.is_empty sources || Term.Set.is_empty targets then Graph.empty
  else
    match e with
    | Prop p ->
        Term.Set.fold
          (fun a acc ->
            (match visit with Some f -> f a | None -> ());
            Term.Set.fold
              (fun b acc ->
                if Term.Set.mem b targets then Graph.add a p b acc else acc)
              (Graph.objects g a p) acc)
          sources Graph.empty
    | Inv e -> trace_set ~step ?visit g e ~sources:targets ~targets:sources
    | Alt (e1, e2) ->
        Graph.union
          (trace_set ~step ?visit g e1 ~sources ~targets)
          (trace_set ~step ?visit g e2 ~sources ~targets)
    | Opt e -> trace_set ~step ?visit g e ~sources ~targets
    | Seq (e1, e2) ->
        let mids =
          Term.Set.inter
            (eval_set ~step ?visit g e1 sources)
            (eval_inv_set ~step ?visit g e2 targets)
        in
        if Term.Set.is_empty mids then Graph.empty
        else
          Graph.union
            (trace_set ~step ?visit g e1 ~sources ~targets:mids)
            (trace_set ~step ?visit g e2 ~sources:mids ~targets)
    | Star e ->
        let forward = eval_set ~step ?visit g (Star e) sources in
        let backward = eval_inv_set ~step ?visit g (Star e) targets in
        let from_zone = Term.Set.inter forward backward in
        (* every E-step inside the forward/backward zone lies on a valid
           star path between some source and some target *)
        trace_set ~step ?visit g e ~sources:from_zone ~targets:from_zone

let trace ?step ?visit g e a b =
  trace_set ?step ?visit g e ~sources:(Term.Set.singleton a)
    ~targets:(Term.Set.singleton b)

let trace_all ?step ?visit g e a ~targets =
  trace_set ?step ?visit g e ~sources:(Term.Set.singleton a) ~targets

(* ---------------- batched (set-at-a-time) kernel ------------------- *)

(* Sorted-int-array set algebra for the batch kernel's results.  All
   arrays are ascending and duplicate-free; ids ascend with terms, so
   these arrays decode to ascending term sequences like [IdSet] folds
   do. *)
let merge_sorted a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin out.(!k) <- x; incr i end
      else if y < x then begin out.(!k) <- y; incr j end
      else begin out.(!k) <- x; incr i; incr j end;
      incr k
    done;
    while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let mem_sorted arr x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let v = arr.(mid) in
      if v = x then true else if v < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length arr)

let insert_sorted arr x =
  if mem_sorted arr x then arr else merge_sorted arr [| x |]

let inter_sorted a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min la lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      out.(!k) <- x;
      incr i;
      incr j;
      incr k
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

module Batch = struct
  (* One memoized evaluation: the targets of [[E]](a) (or the inverse
     image for [inv]) and the exact [step]/[lookup] charge the per-node
     core would have spent computing it — replayed to the user hooks on
     every cache hit so the batch kernel stays hook-for-hook equivalent
     in *total* charge to evaluating each source independently.  Only
     the interleaving differs (a hit replays its steps before its
     lookups); fuel is spent by [step] alone, so exhaustion points in
     fuel terms are unchanged. *)
  type entry = {
    targets : int array;
    steps : int;
    lookups : int;
  }

  (* A read-only second layer underneath per-worker contexts: filled by
     the engine's set-at-a-time priming pass before the pool spawns,
     then shared — an OCaml [Hashtbl] with no writers never resizes, so
     concurrent reads are safe.  Tables are keyed structurally by path
     (contexts resolve them to interned ids once) and per-source by the
     same packed (direction, id) sub-key the context memo uses. *)
  (* Int tables with the identity hash: every hot lookup in the kernel
     is keyed by a packed non-negative int, and the generic [Hashtbl]
     pays a C hash call per probe that dwarfs the bucket walk. *)
  module ITbl = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash (x : int) = x
  end)

  type base = { btables : (t, entry ITbl.t) Hashtbl.t }

  type ctx = {
    st : Store.t;
    memo : entry ITbl.t;
        (* keyed by [(path id, direction, source)] packed into one int *)
    traces : (int array * entry) list ref ITbl.t;
        (* whole-trace memo, keyed by packed (path id, source id) with
           entries matched by {e physical} identity of the target array:
           [targets] holds row ids; checkers re-trace the same (path,
           focus, witnesses) triple once per shape that mentions the
           path, and nearly always hand back the kernel's own memoized
           evaluation array, so a pointer comparison replaces hashing
           and comparing whole arrays.  A structurally equal but
           physically fresh witness array merely recomputes — the
           recorded charge equals the fresh cost, so totals cannot
           tell the difference. *)
    path_ids : (t, int) Hashtbl.t;
        (* structurally equal paths (the same class path parsed in two
           shapes) intern to one id, so memo entries are shared across
           shapes without hashing IRI strings on every probe *)
    mutable n_paths : int;
    mutable last_path : t;
        (* physical fast lane: a checker passes the same subterm object
           on every call from a given constraint *)
    mutable last_id : int;
    base : base option;
        (* read-only primed layer shared across worker contexts *)
    base_cache : entry ITbl.t ITbl.t;
        (* per-path-id resolution of the base's structural table *)
    user_step : unit -> unit;
    user_lookup : unit -> unit;
    user_step_n : int -> unit;
    user_lookup_n : int -> unit;
        (* bulk variants used by charge replay: a memoized trace can
           stand for thousands of recorded steps, and looping a closure
           that many times costs more than the trace itself *)
    charge_step : bool;
    charge_lookup : bool;
    mutable steps : int;
    mutable lookups : int;
  }

  let base_create () = { btables = Hashtbl.create 64 }

  let base_merge ~into b =
    Hashtbl.iter
      (fun path table ->
        match Hashtbl.find_opt into.btables path with
        | None -> Hashtbl.add into.btables path table
        | Some existing ->
            ITbl.iter (fun k ent -> ITbl.replace existing k ent) table)
      b.btables

  let create ?step ?step_n ?lookup ?lookup_n ?base st =
    let bulk hook = function
      | Some f -> f
      | None ->
          fun k ->
            for _ = 1 to k do
              hook ()
            done
    in
    let user_step = match step with Some f -> f | None -> ignore in
    let user_lookup = match lookup with Some f -> f | None -> ignore in
    { st;
      memo = ITbl.create 1024;
      traces = ITbl.create 1024;
      base;
      base_cache = ITbl.create 64;
      path_ids = Hashtbl.create 64;
      n_paths = 0;
      last_path = Prop (Iri.of_string "urn:path-batch:none");
      last_id = -1;
      user_step;
      user_lookup;
      user_step_n = bulk user_step step_n;
      user_lookup_n = bulk user_lookup lookup_n;
      charge_step = Option.is_some step;
      charge_lookup = Option.is_some lookup;
      steps = 0;
      lookups = 0 }

  let intern ctx e =
    if ctx.last_path == e then ctx.last_id
    else begin
      let id =
        match Hashtbl.find_opt ctx.path_ids e with
        | Some id -> id
        | None ->
            let id = ctx.n_paths in
            ctx.n_paths <- id + 1;
            Hashtbl.add ctx.path_ids e id;
            (match ctx.base with
            | Some b -> (
                match Hashtbl.find_opt b.btables e with
                | Some table -> ITbl.add ctx.base_cache id table
                | None -> ())
            | None -> ());
            id
      in
      ctx.last_path <- e;
      ctx.last_id <- id;
      id
    end

  (* Sources are term ids (< 2^31 on any graph the store can hold) and
     path ids are intern counts, so the packed key cannot collide.  The
     low 32 bits — (direction, source) — are the base tables' sub-key,
     identical across contexts with different interning orders. *)
  let pack pid inv a = (((pid lsl 1) lor Bool.to_int inv) lsl 31) lor a
  let sub_key key = key land ((1 lsl 32) - 1)

  let base_find ctx key =
    match ITbl.find_opt ctx.base_cache (key lsr 32) with
    | None -> None
    | Some table -> ITbl.find_opt table (sub_key key)

  let step ctx =
    ctx.steps <- ctx.steps + 1;
    ctx.user_step ()

  let lookup ctx =
    ctx.lookups <- ctx.lookups + 1;
    ctx.user_lookup ()

  (* A cache hit re-charges the recorded per-node-equivalent cost.  The
     counters accumulate into [ctx] too, so a parent computation's
     recorded delta covers its memoized children — by induction every
     entry carries the full cost a fresh per-node evaluation would
     spend. *)
  let replay ctx (e : entry) =
    ctx.steps <- ctx.steps + e.steps;
    ctx.lookups <- ctx.lookups + e.lookups;
    if ctx.charge_step then ctx.user_step_n e.steps;
    if ctx.charge_lookup then ctx.user_lookup_n e.lookups

  (* Adjacency scans: rows inside a (s,p) SPO range carry strictly
     ascending objects, rows inside a (p,o) POS range strictly ascending
     subjects, so the result arrays are sorted and duplicate-free by
     construction. *)
  let objects_arr st pid a =
    let lo, hi = Store.objects_range st ~s:a ~p:pid in
    Array.init (hi - lo) (fun k -> Store.spo_obj st (lo + k))

  let subjects_arr st pid b =
    let lo, hi = Store.subjects_range st ~p:pid ~o:b in
    Array.init (hi - lo) (fun k -> Store.pos_subj st (lo + k))

  (* The recursion mirrors [eval_ids]/[eval_inv_ids] charge-for-charge:
     one [step] per operator application, one [lookup] per adjacency
     probe, sub-evaluations in ascending id order (the order [IdSet.fold]
     iterates in).  [inv] folds [Inv] into the direction flag so one memo
     key space covers both directions. *)
  let rec eval_entry ctx e inv a =
    let key = pack (intern ctx e) inv a in
    match ITbl.find_opt ctx.memo key with
    | Some ent ->
        replay ctx ent;
        ent
    | None ->
        match base_find ctx key with
        | Some ent ->
            (* adopting a primed entry costs what re-evaluating would *)
            replay ctx ent;
            ITbl.add ctx.memo key ent;
            ent
        | None ->
        let s0 = ctx.steps and l0 = ctx.lookups in
        let targets = compute ctx e inv a in
        let ent =
          { targets; steps = ctx.steps - s0; lookups = ctx.lookups - l0 }
        in
        ITbl.add ctx.memo key ent;
        ent

  and sub ctx e inv a = (eval_entry ctx e inv a).targets

  and compute ctx e inv a =
    step ctx;
    match e with
    | Prop p -> (
        lookup ctx;
        match Store.pred_id ctx.st p with
        | None -> [||]
        | Some pid ->
            if inv then subjects_arr ctx.st pid a else objects_arr ctx.st pid a)
    | Inv e -> sub ctx e (not inv) a
    | Seq (e1, e2) ->
        let first, second = if inv then (e2, e1) else (e1, e2) in
        let mids = sub ctx first inv a in
        if Array.length mids = 0 then [||]
        else begin
          (* per-mid results are sorted; a balanced merge is
             size-proportional where a universe bitset round-trip would
             cost a full scan per evaluation *)
          let arrs = Array.map (fun m -> sub ctx second inv m) mids in
          let rec reduce lo hi =
            if hi - lo = 1 then arrs.(lo)
            else
              let mid = (lo + hi) / 2 in
              merge_sorted (reduce lo mid) (reduce mid hi)
          in
          reduce 0 (Array.length arrs)
        end
    | Alt (e1, e2) ->
        let t1 = sub ctx e1 inv a in
        let t2 = sub ctx e2 inv a in
        merge_sorted t1 t2
    | Opt e -> insert_sorted (sub ctx e inv a) a
    | Star e ->
        (* Delta-driven fixpoint: each round expands only the frontier
           discovered in the previous one, exactly like [closure_ids] —
           but every one-step expansion is a memo entry shared across
           all sources of the batch.  Visited stays a hash-plus-list so
           the cost is proportional to the closure, not the universe;
           each frontier is sorted so sub-evaluations run in ascending
           id order like [closure_ids]'s. *)
        let seen = Hashtbl.create 16 in
        Hashtbl.add seen a ();
        let acc = ref [ a ] and count = ref 1 in
        let frontier = ref [| a |] in
        while Array.length !frontier > 0 do
          let fresh = ref [] and n = ref 0 in
          Array.iter
            (fun x ->
              Array.iter
                (fun y ->
                  if not (Hashtbl.mem seen y) then begin
                    Hashtbl.add seen y ();
                    fresh := y :: !fresh;
                    acc := y :: !acc;
                    incr n;
                    incr count
                  end)
                (sub ctx e inv x))
            !frontier;
          let fr = Array.make !n 0 in
          List.iteri (fun k i -> fr.(!n - 1 - k) <- i) !fresh;
          Array.sort (fun (x : int) y -> compare x y) fr;
          frontier := fr
        done;
        let r = Array.make !count 0 in
        List.iteri (fun k i -> r.(!count - 1 - k) <- i) !acc;
        Array.sort (fun (x : int) y -> compare x y) r;
        r


  (* Uncharged reads for memo-layer bookkeeping above the kernel: the
     batched checker classifies an evaluation as a memo hit before
     asking for its result, and a hit must stay charge-free (one budget
     tick at the caller) exactly like [Shacl.Path_memo]'s. *)
  let eval_cached ctx e a =
    let key = pack (intern ctx e) false a in
    match ITbl.find_opt ctx.memo key with
    | Some ent -> Some ent.targets
    | None -> (
        match base_find ctx key with
        | Some ent ->
            (* adopt without charge: a later [eval] replays normally *)
            ITbl.add ctx.memo key ent;
            Some ent.targets
        | None -> None)

  let base_mem ctx e a =
    Option.is_some (base_find ctx (pack (intern ctx e) false a))

  let memo_size ctx = ITbl.length ctx.memo

  (* Publish every entry of [ctx] — sub-paths included — into a shared
     base, keyed structurally so contexts with different interning
     orders resolve them. *)
  let export ctx ~into =
    if ctx.n_paths > 0 then begin
      let rev = Array.make ctx.n_paths None in
      Hashtbl.iter (fun p id -> rev.(id) <- Some p) ctx.path_ids;
      ITbl.iter
        (fun key ent ->
          match rev.(key lsr 32) with
          | None -> ()
          | Some path ->
              let table =
                match Hashtbl.find_opt into.btables path with
                | Some t -> t
                | None ->
                    let t = ITbl.create 256 in
                    Hashtbl.add into.btables path t;
                    t
              in
              ITbl.replace table (sub_key key) ent)
        ctx.memo
    end

  let eval ctx e a = (eval_entry ctx e false a).targets
  let eval_inv ctx e a = (eval_entry ctx e true a).targets

  (* Union of [[E]](x) (or its inverse) over a sorted node array — the
     id-space counterpart of [eval_set]/[eval_inv_set].  Tracing calls
     this with tiny node arrays (often a single focus node) and the
     per-node results are already sorted, so a balanced array merge
     beats filling and rescanning a whole-universe bitset. *)
  let eval_union ctx e inv nodes =
    match Array.length nodes with
    | 0 -> [||]
    | 1 -> (eval_entry ctx e inv nodes.(0)).targets
    | n ->
        let arrs =
          Array.map (fun a -> (eval_entry ctx e inv a).targets) nodes
        in
        let rec reduce lo hi =
          if hi - lo = 1 then arrs.(lo)
          else
            let mid = (lo + hi) / 2 in
            merge_sorted (reduce lo mid) (reduce mid hi)
        in
        reduce 0 n

  (* [trace_set] transcribed to id space, emitting canonical SPO row ids
     instead of building a persistent graph: each [Prop] leg inside a
     (s,p) range *is* a row index.  Same recursion, same [step] charge
     per operator, same internal evaluations (answered from the memo,
     with their charges replayed). *)
  let rec trace_ids ctx add_row e ~sources ~targets =
    step ctx;
    if Array.length sources = 0 || Array.length targets = 0 then ()
    else
      match e with
      | Prop p -> (
          match Store.pred_id ctx.st p with
          | None -> ()
          | Some pid ->
              Array.iter
                (fun a ->
                  let lo, hi = Store.objects_range ctx.st ~s:a ~p:pid in
                  for r = lo to hi - 1 do
                    if mem_sorted targets (Store.spo_obj ctx.st r) then
                      add_row r
                  done)
                sources)
      | Inv e -> trace_ids ctx add_row e ~sources:targets ~targets:sources
      | Alt (e1, e2) ->
          trace_ids ctx add_row e1 ~sources ~targets;
          trace_ids ctx add_row e2 ~sources ~targets
      | Opt e -> trace_ids ctx add_row e ~sources ~targets
      | Seq (e1, e2) ->
          let fwd = eval_union ctx e1 false sources in
          let bwd = eval_union ctx e2 true targets in
          let mids = inter_sorted fwd bwd in
          if Array.length mids = 0 then ()
          else begin
            trace_ids ctx add_row e1 ~sources ~targets:mids;
            trace_ids ctx add_row e2 ~sources:mids ~targets
          end
      | Star e ->
          let forward = eval_union ctx (Star e) false sources in
          let backward = eval_union ctx (Star e) true targets in
          let zone = inter_sorted forward backward in
          trace_ids ctx add_row e ~sources:zone ~targets:zone

  (* Row yields per trace are tiny (a neighborhood's triples), so the
     rows are collected into a list and sort-deduplicated — touching a
     whole-triple-universe bitset per call would cost more than the
     trace itself. *)
  let trace_fresh ctx e ~sources ~targets =
    let rows = ref [] in
    trace_ids ctx (fun r -> rows := r :: !rows) e ~sources ~targets;
    match !rows with
    | [] -> [||]
    | l ->
        let arr = Array.of_list l in
        Array.sort (fun (x : int) y -> compare x y) arr;
        let n = Array.length arr in
        let m = ref 0 in
        for i = 0 to n - 1 do
          if i = 0 || arr.(i) <> arr.(i - 1) then begin
            arr.(!m) <- arr.(i);
            incr m
          end
        done;
        if !m = n then arr else Array.sub arr 0 !m

  (* Whole-trace memo: checkers re-trace the same (path, focus,
     witnesses) triple once per shape mentioning the path, and a trace
     is deterministic in its arguments, so the rows — and the recorded
     per-node-equivalent charge — can be replayed like any entry. *)
  let trace ctx e ~sources ~targets =
    if Array.length sources <> 1 then
      (* multi-source traces (tests, ad-hoc callers) skip the memo: the
         checkers always trace one focus node *)
      trace_fresh ctx e ~sources ~targets
    else begin
      let key = pack (intern ctx e) false sources.(0) in
      let bucket =
        match ITbl.find_opt ctx.traces key with
        | Some l -> l
        | None ->
            let l = ref [] in
            ITbl.add ctx.traces key l;
            l
      in
      match List.find_opt (fun (t, _) -> t == targets) !bucket with
      | Some (_, ent) ->
          replay ctx ent;
          ent.targets
      | None ->
          let s0 = ctx.steps and l0 = ctx.lookups in
          let rows = trace_fresh ctx e ~sources ~targets in
          bucket :=
            ( targets,
              { targets = rows;
                steps = ctx.steps - s0;
                lookups = ctx.lookups - l0 } )
            :: !bucket;
          rows
    end
end

let eval_batch ?step ?lookup st e ~sources =
  let ctx = Batch.create ?step ?lookup st in
  let rel = Relation.create (Store.n_terms st) in
  Bitset.iter (fun a -> Relation.set_row rel a (Batch.eval ctx e a)) sources;
  Relation.compact rel

let eval_batch_inv ?step ?lookup st e ~sources =
  let ctx = Batch.create ?step ?lookup st in
  let rel = Relation.create (Store.n_terms st) in
  Bitset.iter (fun a -> Relation.set_row rel a (Batch.eval_inv ctx e a)) sources;
  Relation.compact rel

let rec pp_prec pp_iri prec ppf e =
  let paren needed body =
    if needed then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Prop p -> pp_iri ppf p
  | Inv e -> Format.fprintf ppf "^%a" (pp_prec pp_iri 3) e
  | Seq (e1, e2) ->
      paren (prec > 1) (fun ppf ->
          Format.fprintf ppf "%a/%a" (pp_prec pp_iri 1) e1 (pp_prec pp_iri 1) e2)
  | Alt (e1, e2) ->
      paren (prec > 0) (fun ppf ->
          Format.fprintf ppf "%a|%a" (pp_prec pp_iri 0) e1 (pp_prec pp_iri 0) e2)
  | Star e -> Format.fprintf ppf "%a*" (pp_prec pp_iri 3) e
  | Opt e -> Format.fprintf ppf "%a?" (pp_prec pp_iri 3) e

let pp_with pp_iri ppf e = pp_prec pp_iri 0 ppf e
let pp ppf e = pp_with Iri.pp ppf e
let to_string e = Format.asprintf "%a" pp e
