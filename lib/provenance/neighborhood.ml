open Rdf
open Shacl

(* Comparison of terms under the paper's partial order < on literals;
   non-literals are incomparable. *)
let term_lt a b =
  match Term.as_literal a, Term.as_literal b with
  | Some la, Some lb -> Literal.lt la lb
  | _ -> false

let term_leq a b =
  match Term.as_literal a, Term.as_literal b with
  | Some la, Some lb -> Literal.leq la lb
  | _ -> false

let term_same_lang a b =
  match Term.as_literal a, Term.as_literal b with
  | Some la, Some lb -> Literal.same_language la lb
  | _ -> false

(* The violation test of a negated comparison, on (x ∈ [[E]](v), y)
   with (v, p, y) in G. *)
let violates = function
  | Shape.Less_than _ -> fun x y -> not (term_lt x y)
  | Shape.Less_than_eq _ -> fun x y -> not (term_leq x y)
  | Shape.More_than _ -> fun x y -> not (term_lt y x)
  | _ -> fun x y -> not (term_leq y x)

let singleton s p o = Graph.add s p o Graph.empty

(* Triples (v, p, x) in g such that x satisfies [keep]. *)
let p_triples g v p ~keep =
  Term.Set.fold
    (fun x acc -> if keep x then Graph.add v p x acc else acc)
    (Graph.objects g v p)
    Graph.empty

(* Triples (v, p, x) in g with p outside [allowed]. *)
let outside_triples g v allowed =
  List.fold_left
    (fun acc t ->
      if Iri.Set.mem (Triple.predicate t) allowed then acc
      else Graph.add_triple t acc)
    Graph.empty (Graph.subject_triples g v)

(* ------------------------------------------------------------------ *)
(* Table 2, literally: one case's own triples and its recursive       *)
(* obligations.  The naive algorithm (Section 3.3) and the annotated  *)
(* explanations both unfold it.                                       *)
(* ------------------------------------------------------------------ *)

let parts ~eval ~trace_all ~conforms ~schema g v (phi : Shape.t) =
  match phi with
  | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
  | Shape.Closed _ | Shape.Disj _ | Shape.Less_than _ | Shape.Less_than_eq _
  | Shape.More_than _ | Shape.More_than_eq _ | Shape.Unique_lang _ ->
      (Graph.empty, [])
  | Shape.Has_shape s -> (Graph.empty, [ (v, Shape.nnf (Schema.def_shape schema s)) ])
  | Shape.And l | Shape.Or l -> (Graph.empty, List.map (fun psi -> (v, psi)) l)
  | Shape.Eq (Shape.Id, p) -> (singleton v p v, [])
  | Shape.Eq (Shape.Path e, p) ->
      (* graph(paths(E ∪ p, G, v, x)) for all x reachable by E ∪ p *)
      let ep = Rdf.Path.Alt (e, Rdf.Path.Prop p) in
      let targets = eval ep v in
      (trace_all ep v ~targets, [])
  | Shape.Ge (_, e, psi) | Shape.Forall (e, psi) | Shape.Le (_, e, psi) ->
      (* ≥n and ≤n trace the witnesses of their body (of its negation
         for ≤n); ∀ traces every value *)
      let body, witnesses =
        match phi with
        | Shape.Ge _ ->
            (psi, Term.Set.filter (fun x -> conforms x psi) (eval e v))
        | Shape.Le _ ->
            let neg = Shape.nnf (Shape.Not psi) in
            (neg, Term.Set.filter (fun x -> conforms x neg) (eval e v))
        | _ -> (psi, eval e v)
      in
      ( trace_all e v ~targets:witnesses,
        List.map (fun x -> (x, body)) (Term.Set.elements witnesses) )
  | Shape.Not inner -> (
      match inner with
      | Shape.Has_shape s ->
          (Graph.empty, [ (v, Shape.nnf (Shape.Not (Schema.def_shape schema s))) ])
      | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _ ->
          (Graph.empty, [])
      | Shape.Eq (Shape.Id, p) ->
          (p_triples g v p ~keep:(fun x -> not (Term.equal x v)), [])
      | Shape.Eq (Shape.Path e, p) ->
          let reached = eval e v in
          let objects = Graph.objects g v p in
          let t1 = trace_all e v ~targets:(Term.Set.diff reached objects) in
          let t2 = p_triples g v p ~keep:(fun x -> not (Term.Set.mem x reached)) in
          (Graph.union t1 t2, [])
      | Shape.Disj (Shape.Id, p) -> (singleton v p v, [])
      | Shape.Disj (Shape.Path e, p) ->
          let common = Term.Set.inter (eval e v) (Graph.objects g v p) in
          ( Term.Set.fold
              (fun x acc -> Graph.add v p x acc)
              common
              (trace_all e v ~targets:common),
            [] )
      | Shape.Less_than (e, p) | Shape.Less_than_eq (e, p)
      | Shape.More_than (e, p) | Shape.More_than_eq (e, p) ->
          (* witness pairs (x, y) with x in [[E]](v), (v, p, y) in G and
             the comparison violated: trace(E, v, x) plus (v, p, y) *)
          let violates = violates inner in
          let reached = eval e v in
          let objects = Graph.objects g v p in
          let witnesses_x =
            Term.Set.filter
              (fun x -> Term.Set.exists (fun y -> violates x y) objects)
              reached
          in
          let witnesses_y =
            Term.Set.filter
              (fun y -> Term.Set.exists (fun x -> violates x y) reached)
              objects
          in
          ( Term.Set.fold
              (fun y acc -> Graph.add v p y acc)
              witnesses_y
              (trace_all e v ~targets:witnesses_x),
            [] )
      | Shape.Unique_lang e ->
          let reached = eval e v in
          let clashing =
            Term.Set.filter
              (fun x ->
                Term.Set.exists
                  (fun y -> (not (Term.equal y x)) && term_same_lang y x)
                  reached)
              reached
          in
          (trace_all e v ~targets:clashing, [])
      | Shape.Closed allowed -> (outside_triples g v allowed, [])
      | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
      | Shape.Forall _ ->
          (* impossible after NNF *)
          assert false)

let local_parts ?(schema = Schema.empty) ~conforms g v phi =
  parts ~eval:(Rdf.Path.eval g)
    ~trace_all:(fun e v ~targets -> Rdf.Path.trace_all g e v ~targets)
    ~conforms ~schema g v phi

(* ------------------------------------------------------------------ *)
(* Naive algorithm (Section 3.3): conformance checks and neighborhood *)
(* construction as separate recursions over Table 2.                  *)
(* ------------------------------------------------------------------ *)

let make_naive ?(budget = Runtime.Budget.unlimited) ?(schema = Schema.empty) g =
  let memo : (Term.t * Shape.t, Graph.t) Hashtbl.t = Hashtbl.create 256 in
  let conforms = Conformance.memoized ~budget schema g in
  let eval e v =
    Runtime.Budget.tick budget;
    Rdf.Path.eval ~step:(Runtime.Budget.step_hook budget) g e v
  in
  let trace_all e v ~targets =
    Rdf.Path.trace_all ~step:(Runtime.Budget.step_hook budget) g e v ~targets
  in
  let rec go v phi =
    if not (conforms v phi) then Graph.empty
    else
      match phi with
      | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
      | Shape.Not (Shape.Test _ | Shape.Has_value _ | Shape.Top | Shape.Bottom)
        ->
          (* memoizing trivia costs more than recomputing it *)
          compute v phi
      | _ -> (
          Runtime.Budget.tick budget;
          match Hashtbl.find_opt memo (v, phi) with
          | Some cached -> cached
          | None ->
              let result = compute v phi in
              Hashtbl.add memo (v, phi) result;
              result)
  (* Table 2, assuming conformance holds and phi is in NNF. *)
  and compute v phi =
    let local, obligations = parts ~eval ~trace_all ~conforms ~schema g v phi in
    List.fold_left (fun acc (x, psi) -> Graph.union acc (go x psi)) local obligations
  in
  (conforms, go)

let b ?budget ?schema g v phi =
  let _, go = make_naive ?budget ?schema g in
  go v (Shape.nnf phi)

(* ------------------------------------------------------------------ *)
(* Resolved subshapes, shared by the instrumented checker, the verdict *)
(* pass and the row collector.                                         *)
(* ------------------------------------------------------------------ *)

(* Subshapes, resolved once per shape.  The NNF tree is hash-consed
   bottom-up, so structurally equal subshapes — wherever they occur,
   and in the reference expansions and [≤n] negations resolved on
   demand — are one node with one memo slot: shape-memo hits are those
   of a memo keyed by shape structure, at the cost of one int
   comparison per child when the node is built.  A node holds no
   evaluation state; a checker keeps its memo tables in an array
   indexed by [id]. *)
type sub = {
  id : int;
  phi : Shape.t;           (* the NNF subshape; dispatch reads its head *)
  kids : sub array;        (* conjuncts/disjuncts, or the quantifier body *)
  trivial : bool;          (* memoizing trivia costs more than recomputing it *)
  mutable derived : sub option;
      (* the [hasShape] expansion, or the [≤n] body's negation *)
  mutable alt : Rdf.Path.t option;  (* [eq(E, p)]'s [E ∪ p] *)
}

module Key = struct
  type t =
    | Atom of Shape.t
    | Conj of int list
    | Disj of int list
    | Count of bool * int * Rdf.Path.t * int  (* ≥n (true) / ≤n, path, body *)
    | All of Rdf.Path.t * int

  let equal a b =
    match a, b with
    | Atom x, Atom y -> Shape.equal x y
    | Conj l, Conj m | Disj l, Disj m -> List.equal Int.equal l m
    | Count (g, n, e, x), Count (h, m, f, y) ->
        g = h && n = m && x = y && Rdf.Path.equal e f
    | All (e, x), All (f, y) -> x = y && Rdf.Path.equal e f
    | (Atom _ | Conj _ | Disj _ | Count _ | All _), _ -> false

  (* [Shape.equal] compares [closed(P)] as a set, so its hash must not
     see the set's tree layout. *)
  let hash = function
    | Atom (Shape.Closed s | Shape.Not (Shape.Closed s)) ->
        Hashtbl.hash (Iri.Set.elements s)
    | k -> Hashtbl.hash k
end

module Subs = Hashtbl.Make (Key)

type subs = { schema : Schema.t; table : sub Subs.t }

let rec resolve subs phi =
  let key, kids =
    match phi with
    | Shape.And l | Shape.Or l ->
        let kids = Array.of_list (List.map (resolve subs) l) in
        let ids = Array.to_list (Array.map (fun k -> k.id) kids) in
        ((match phi with Shape.And _ -> Key.Conj ids | _ -> Key.Disj ids), kids)
    | Shape.Ge (n, e, psi) | Shape.Le (n, e, psi) ->
        let body = resolve subs psi in
        let ge = match phi with Shape.Ge _ -> true | _ -> false in
        (Key.Count (ge, n, e, body.id), [| body |])
    | Shape.Forall (e, psi) ->
        let body = resolve subs psi in
        (Key.All (e, body.id), [| body |])
    | _ -> (Key.Atom phi, [||])
  in
  match Subs.find_opt subs.table key with
  | Some sub -> sub
  | None ->
      let trivial =
        match phi with
        | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
        | Shape.Not (Shape.Test _ | Shape.Has_value _ | Shape.Top | Shape.Bottom)
          ->
            true
        | _ -> false
      in
      let sub =
        { id = Subs.length subs.table; phi; kids; trivial; derived = None;
          alt = None }
      in
      Subs.add subs.table key sub;
      sub

let derived subs sub =
  match sub.derived with
  | Some d -> d
  | None ->
      let schema = subs.schema in
      let d =
        resolve subs
          (match sub.phi with
          | Shape.Has_shape s -> Shape.nnf (Schema.def_shape schema s)
          | Shape.Not (Shape.Has_shape s) ->
              Shape.nnf (Shape.Not (Schema.def_shape schema s))
          | Shape.Le (_, _, psi) -> Shape.nnf (Shape.Not psi)
          | _ -> invalid_arg "Neighborhood.derived")
      in
      sub.derived <- Some d;
      d

let alt sub e p =
  match sub.alt with
  | Some ep -> ep
  | None ->
      let ep = Rdf.Path.Alt (e, Rdf.Path.Prop p) in
      sub.alt <- Some ep;
      ep

(* The last shape resolved on this domain.  Checkers come in runs over
   one shape — a chunk's candidates, the incremental state's pairs of
   one definition — so a one-entry cache, keyed by the physical schema
   and shape, resolves each shape once per run.  Nodes are only ever
   extended (a new expansion, a cached [E ∪ p]), so a cached resolution
   serves every later checker of the same shape on the domain. *)
let last_resolved : (Schema.t * Shape.t * subs * sub) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let resolve_root schema phi =
  match Domain.DLS.get last_resolved with
  | Some (h, shape, subs, root) when h == schema && shape == phi -> (subs, root)
  | _ ->
      let subs = { schema; table = Subs.create 16 } in
      let root = resolve subs (Shape.nnf phi) in
      Domain.DLS.set last_resolved (Some (schema, phi, subs, root));
      (subs, root)

(* ------------------------------------------------------------------ *)
(* Instrumented validator (Section 5.2): one pass computing both      *)
(* conformance and neighborhood over the term graph.                   *)
(* ------------------------------------------------------------------ *)

(* The (node, subshape) memo of one subshape: one structural hash per
   probe ([Term.hash] makes two). *)
module Memo = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Hashtbl.hash
end)

(* Ascending, stopping at the first [false] ([Term.Set.for_all] is not
   ascending, and the order decides which memo entries get made). *)
let for_all p s =
  let exception Stop in
  match Term.Set.iter (fun x -> if not (p x) then raise_notrace Stop) s with
  | () -> true
  | exception Stop -> false

let checker ?(budget = Runtime.Budget.unlimited) ?(schema = Schema.empty)
    ?touched g phi =
  let subs, root = resolve_root schema phi in
  (* one memo table per resolved subshape, made on first use;
     expansions resolved later extend the array *)
  let memos = ref [||] in
  let memo sub =
    if sub.id >= Array.length !memos then
      memos :=
        Array.append !memos
          (Array.make (Subs.length subs.table - Array.length !memos) None);
    match !memos.(sub.id) with
    | Some m -> m
    | None ->
        let m = Memo.create 16 in
        !memos.(sub.id) <- Some m;
        m
  in
  let step = Runtime.Budget.step_hook budget in
  (* [touched] and [Path]'s [visit] hook receive the anchor of every
     graph probe *)
  let touch v = match touched with Some f -> f v | None -> () in
  let eval e v =
    Runtime.Budget.tick budget;
    Rdf.Path.eval ~step ?visit:touched g e v
  in
  let trace e v ~targets =
    Rdf.Path.trace_all ~step ?visit:touched g e v ~targets
  in
  let is_self s v = Term.Set.equal s (Term.Set.singleton v) in
  let fail = (false, Graph.empty) in
  let rec go v sub =
    if sub.trivial then compute v sub
    else begin
      Runtime.Budget.tick budget;
      let memo = memo sub in
      match Memo.find_opt memo v with
      | Some cached -> cached
      | None ->
          let result = compute v sub in
          Memo.add memo v result;
          result
    end
  and compute v sub =
    touch v;
    match sub.phi with
    | Shape.Top -> (true, Graph.empty)
    | Shape.Bottom -> fail
    | Shape.Test t -> (Node_test.satisfies t v, Graph.empty)
    | Shape.Has_value c -> (Term.equal v c, Graph.empty)
    | Shape.Has_shape _ -> go v (derived subs sub)
    | Shape.Eq (Shape.Id, p) ->
        if is_self (Graph.objects g v p) v then (true, singleton v p v) else fail
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval e v in
        if Term.Set.equal reached (Graph.objects g v p) then begin
          let ep = alt sub e p in
          let targets = eval ep v in
          (true, trace ep v ~targets)
        end
        else fail
    | Shape.Disj (Shape.Id, p) ->
        (not (Term.Set.mem v (Graph.objects g v p)), Graph.empty)
    | Shape.Disj (Shape.Path e, p) ->
        let reached = eval e v in
        (Term.Set.disjoint reached (Graph.objects g v p), Graph.empty)
    | Shape.Closed allowed ->
        (Iri.Set.subset (Graph.out_predicates g v) allowed, Graph.empty)
    | Shape.Less_than (e, p) -> (positive_cmp v e p term_lt, Graph.empty)
    | Shape.Less_than_eq (e, p) -> (positive_cmp v e p term_leq, Graph.empty)
    | Shape.More_than (e, p) ->
        (positive_cmp v e p (fun x y -> term_lt y x), Graph.empty)
    | Shape.More_than_eq (e, p) ->
        (positive_cmp v e p (fun x y -> term_leq y x), Graph.empty)
    | Shape.Unique_lang e ->
        let reached = eval e v in
        let ok =
          for_all
            (fun x ->
              for_all
                (fun y -> Term.equal x y || not (term_same_lang x y))
                reached)
            reached
        in
        (ok, Graph.empty)
    | Shape.And _ ->
        let rec all acc i =
          if i = Array.length sub.kids then (true, acc)
          else
            let c, bx = go v sub.kids.(i) in
            if c then all (Graph.union acc bx) (i + 1) else fail
        in
        all Graph.empty 0
    | Shape.Or _ ->
        Array.fold_left
          (fun (any, acc) psi ->
            let c, bx = go v psi in
            if c then (true, Graph.union acc bx) else (any, acc))
          fail sub.kids
    | Shape.Ge (n, e, _) ->
        let psi = sub.kids.(0) in
        let xs = eval e v in
        let count = ref 0 and acc = ref Graph.empty in
        let witnesses =
          Term.Set.filter
            (fun x ->
              let c, bx = go x psi in
              if c then begin
                incr count;
                acc := Graph.union !acc bx
              end;
              c)
            xs
        in
        if !count >= n then
          (true, Graph.union !acc (trace e v ~targets:witnesses))
        else fail
    | Shape.Le (n, e, _) ->
        let neg = derived subs sub in
        let xs = eval e v in
        let sat_count = ref 0 and acc = ref Graph.empty in
        let witnesses =
          Term.Set.filter
            (fun x ->
              let c_neg, b_neg = go x neg in
              if c_neg then acc := Graph.union !acc b_neg else incr sat_count;
              c_neg)
            xs
        in
        if !sat_count <= n then
          (true, Graph.union !acc (trace e v ~targets:witnesses))
        else fail
    | Shape.Forall (e, _) ->
        let psi = sub.kids.(0) in
        let xs = eval e v in
        let acc = ref Graph.empty in
        let ok =
          for_all
            (fun x ->
              let c, bx = go x psi in
              if c then acc := Graph.union !acc bx;
              c)
            xs
        in
        if ok then (true, Graph.union !acc (trace e v ~targets:xs)) else fail
    | Shape.Not inner -> compute_negated v sub inner
  and positive_cmp v e p holds =
    let reached = eval e v in
    let objects = Graph.objects g v p in
    for_all (fun x -> for_all (fun y -> holds x y) objects) reached
  and compute_negated v sub inner =
    match inner with
    | Shape.Has_shape _ -> go v (derived subs sub)
    | Shape.Top -> fail
    | Shape.Bottom -> (true, Graph.empty)
    | Shape.Test t -> (not (Node_test.satisfies t v), Graph.empty)
    | Shape.Has_value c -> (not (Term.equal v c), Graph.empty)
    | Shape.Eq (Shape.Id, p) ->
        if is_self (Graph.objects g v p) v then fail
        else (true, p_triples g v p ~keep:(fun x -> not (Term.equal x v)))
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval e v in
        let objects = Graph.objects g v p in
        if Term.Set.equal reached objects then fail
        else begin
          let t1 = trace e v ~targets:(Term.Set.diff reached objects) in
          let t2 = p_triples g v p ~keep:(fun x -> not (Term.Set.mem x reached)) in
          (true, Graph.union t1 t2)
        end
    | Shape.Disj (Shape.Id, p) ->
        if Term.Set.mem v (Graph.objects g v p) then (true, singleton v p v)
        else fail
    | Shape.Disj (Shape.Path e, p) ->
        let reached = eval e v in
        let common = Term.Set.inter reached (Graph.objects g v p) in
        if Term.Set.is_empty common then fail
        else begin
          let t = trace e v ~targets:common in
          let edges = p_triples g v p ~keep:(fun x -> Term.Set.mem x common) in
          (true, Graph.union t edges)
        end
    | Shape.Less_than (e, p) | Shape.Less_than_eq (e, p)
    | Shape.More_than (e, p) | Shape.More_than_eq (e, p) ->
        let violates = violates inner in
        let reached = eval e v in
        let objects = Graph.objects g v p in
        let witnesses =
          Term.Set.filter
            (fun x -> Term.Set.exists (fun y -> violates x y) objects)
            reached
        in
        let t = trace e v ~targets:witnesses in
        let nb =
          Graph.union t
            (p_triples g v p ~keep:(fun y ->
                 Term.Set.exists (fun x -> violates x y) reached))
        in
        (* no violating pair: the positive comparison holds *)
        if Graph.is_empty nb then fail else (true, nb)
    | Shape.Unique_lang e ->
        let reached = eval e v in
        let clashing =
          Term.Set.filter
            (fun x ->
              Term.Set.exists
                (fun y -> (not (Term.equal y x)) && term_same_lang y x)
                reached)
            reached
        in
        if Term.Set.is_empty clashing then fail
        else (true, trace e v ~targets:clashing)
    | Shape.Closed allowed ->
        let nb = outside_triples g v allowed in
        if Graph.is_empty nb then fail else (true, nb)
    | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
    | Shape.Forall _ ->
        (* impossible after NNF *)
        assert false
  in
  fun v -> go v root

let check ?budget ?schema g v phi = checker ?budget ?schema g phi v

(* ------------------------------------------------------------------ *)
(* Verdict pass: Table 1 alone, in a frozen store's id space.          *)
(* ------------------------------------------------------------------ *)

(* What validation needs of a (node, shape) pair is one bit, so the pass
   keeps no witness sets and no per-node tables.  It walks the resolved
   subshapes depth first from one focus id at a time, stops a
   quantifier as soon as its verdict is known, and memoizes each
   non-trivial (subshape, node) verdict in one byte of a per-worker
   arena: row [sub.id], column [node id].  A byte holds the verdict in
   bit 0 and, above it, the generation of the verdict function that
   wrote it, so a new function (a new chunk or definition) starts from
   an empty memo by bumping the generation, not by clearing or
   allocating; the arena is wiped only when the 7-bit generation wraps.
   Bare [p] and [p⁻] steps scan store ranges in place; compound paths go
   to the worker's kernel context ([Path.Batch]), whose memo is shared
   by every chunk the worker drains.  Minor-heap garbage is the cost
   that matters under [serve] (each minor collection stops every
   domain), so quantifier loops build no value sets and no closures:
   what a decision allocates is the kernel's memo traffic, the value
   sets that equality, disjointness, order and language constraints
   compare, and whatever a node test or literal comparison allocates
   itself. *)

(* Per subshape: what the pass reads of the store, resolved once per
   verdict function (subshape ids are per resolution). *)
type prep = {
  psub : sub;                (* the subshape this entry was prepared for *)
  steps : Rdf.Path.t array;  (* the subshape's path as a sequence E1/…/Ek *)
  pids : int array;
      (* per step: its predicate id when the step is bare ([p] or [p⁻]),
         -1 when that predicate is not in the store, -2 otherwise *)
  invs : bool array;         (* the bare step is [p⁻] *)
  star : int;                (* the path is [s*] of a bare step [s]: as [pids] *)
  star_inv : bool;
  prop : int;                (* the compared property's id, -1 if absent *)
  allowed : int array;       (* [closed]: the allowed predicates' ids, sorted *)
}

type decider = {
  dst : Store.t;
  dctx : Rdf.Path.Batch.ctx;
  dbudget : Runtime.Budget.t;
  n_ids : int;
  cap : int;                 (* most bytes the arena may grow to *)
  mutable arena : Bytes.t;
  mutable serial : int;      (* verdict functions made so far *)
  mutable preps : prep array;
  spill : bool Sorted_ids.Tbl.t;       (* verdicts of rows past [cap] *)
  mutable seen : int array;  (* star walks: visit stamps, and their queue *)
  mutable queue : int array;
  mutable stamp : int;
  dcounters : Counters.t ref;
      (* the current verdict function's counters: [verdicts] points it
         at each new function's record *)
}

let decider ?(budget = Runtime.Budget.unlimited) st =
  let step =
    if Runtime.Budget.is_unlimited budget then None
    else Some (Runtime.Budget.step_hook budget)
  in
  let n_ids = Store.n_terms st in
  (* the kernel charges its probes, replays included, to the current
     verdict function *)
  let dcounters = ref (Counters.create ()) in
  let lookup_n k =
    let c = !dcounters in
    c.Counters.store_lookups <- c.Counters.store_lookups + k
  in
  { dst = st;
    dctx =
      Rdf.Path.Batch.create ?step ~lookup:(fun () -> lookup_n 1) ~lookup_n st;
    dbudget = budget;
    n_ids;
    (* 64 subshape rows, or 16 MiB when that holds more: past it a
       shape thousands of levels deep over a large graph spills to a
       table instead of reserving rows it may never reach *)
    cap = max (64 * n_ids) (16 lsl 20);
    arena = Bytes.empty;
    serial = 0;
    preps = [||];
    spill = Sorted_ids.Tbl.create 16;
    seen = [||];
    queue = [||];
    stamp = 0;
    dcounters }

let pred_of d p = match Store.pred_id d.dst p with Some i -> i | None -> -1

let bare d = function
  | Rdf.Path.Prop p -> (pred_of d p, false)
  | Rdf.Path.Inv (Rdf.Path.Prop p) -> (pred_of d p, true)
  | _ -> (-2, false)

let prepare d sub =
  let positive = match sub.phi with Shape.Not x -> x | x -> x in
  let path =
    match positive with
    | Shape.Ge (_, e, _) | Shape.Le (_, e, _) | Shape.Forall (e, _)
    | Shape.Unique_lang e
    | Shape.Eq (Shape.Path e, _) | Shape.Disj (Shape.Path e, _)
    | Shape.Less_than (e, _) | Shape.Less_than_eq (e, _)
    | Shape.More_than (e, _) | Shape.More_than_eq (e, _) -> [ e ]
    | _ -> []
  in
  let rec flatten = function
    | Rdf.Path.Seq (e1, e2) -> flatten e1 @ flatten e2
    | e -> [ e ]
  in
  let steps = Array.of_list (List.concat_map flatten path) in
  let bares = Array.map (bare d) steps in
  let star, star_inv =
    match path with [ Rdf.Path.Star e ] -> bare d e | _ -> (-2, false)
  in
  let prop =
    match positive with
    | Shape.Eq (_, p) | Shape.Disj (_, p)
    | Shape.Less_than (_, p) | Shape.Less_than_eq (_, p)
    | Shape.More_than (_, p) | Shape.More_than_eq (_, p) -> pred_of d p
    | _ -> -1
  in
  let allowed =
    match positive with
    | Shape.Closed allowed ->
        let ids =
          Iri.Set.fold
            (fun p acc -> match pred_of d p with -1 -> acc | i -> i :: acc)
            allowed []
        in
        let arr = Array.of_list ids in
        Array.sort Int.compare arr;
        arr
    | _ -> [||]
  in
  { psub = sub; steps; pids = Array.map fst bares; invs = Array.map snd bares;
    star; star_inv; prop; allowed }

let prep d sub =
  let id = sub.id in
  if id < Array.length d.preps && d.preps.(id).psub == sub then d.preps.(id)
  else begin
    let p = prepare d sub in
    if id >= Array.length d.preps then
      d.preps <-
        Array.append d.preps
          (Array.make (max (id + 1 - Array.length d.preps) 16) p);
    d.preps.(id) <- p;
    p
  end

(* The arena byte of (sub, v), growing the arena to hold row [sub]
   while it stays within [cap]; -1 when the row lies past the cap. *)
let slot d sub v =
  let i = (sub.id * d.n_ids) + v in
  if i < Bytes.length d.arena then i
  else if (sub.id + 1) * d.n_ids > d.cap then -1
  else begin
    let need = (sub.id + 1) * d.n_ids in
    let size = min d.cap (max need (2 * Bytes.length d.arena)) in
    let arena = Bytes.make size '\000' in
    Bytes.blit d.arena 0 arena 0 (Bytes.length d.arena);
    d.arena <- arena;
    i
  end

(* One verdict function's state: its serial number, its arena
   generation (1..127) and its resolution. *)
type pass = { d : decider; serial : int; gen : int; subs : subs }

(* One path evaluation: a budget tick, and a probe when [probe]. *)
let charge p ~probe =
  Runtime.Budget.tick p.d.dbudget;
  let c = !(p.d.dcounters) in
  c.Counters.path_evals <- c.Counters.path_evals + 1;
  if probe then c.Counters.store_lookups <- c.Counters.store_lookups + 1

(* The values of a bare step (predicate id [pid] ≥ 0) at [v]: rows
   [lo, hi) of the ordering [value] reads. *)
let step_lo st pid inv v =
  if inv then Store.subjects_lo st ~p:pid ~o:v else Store.objects_lo st ~s:v ~p:pid

let step_hi st pid inv v =
  if inv then Store.subjects_hi st ~p:pid ~o:v else Store.objects_hi st ~s:v ~p:pid

let step_value st inv r = if inv then Store.pos_subj st r else Store.spo_obj st r

let range_ids st pid inv v =
  if pid < 0 then [||]
  else
    let lo = step_lo st pid inv v in
    Array.init (step_hi st pid inv v - lo) (fun k -> step_value st inv (lo + k))

(* [[E]](v) as a sorted id array, for the constraints that compare
   value sets (equality, disjointness, order, language). *)
let values p v pr e =
  if Array.length pr.steps = 1 && pr.pids.(0) <> -2 then begin
    charge p ~probe:true;
    range_ids p.d.dst pr.pids.(0) pr.invs.(0) v
  end
  else begin
    charge p ~probe:false;
    Rdf.Path.Batch.eval p.d.dctx e v
  end

let prop_values p v pr = range_ids p.d.dst pr.prop false v

(* Trivial subshapes are recomputed, except node tests: a literal
   test parses the literal, and value nodes recur across focus nodes. *)
let memoized sub =
  (not sub.trivial)
  || match sub.phi with Shape.Test _ | Shape.Not (Shape.Test _) -> true | _ -> false

let rec decide p v sub =
  if not (memoized sub) then compute p v sub
  else begin
    let d = p.d in
    let c = !(d.dcounters) in
    c.Counters.memo_lookups <- c.Counters.memo_lookups + 1;
    let i = slot d sub v in
    let cached =
      if i >= 0 then
        let b = Char.code (Bytes.unsafe_get d.arena i) in
        if b lsr 1 = p.gen then b land 1 else -1
      else
        match Sorted_ids.Tbl.find d.spill ((sub.id lsl 31) lor v) with
        | b -> Bool.to_int b
        | exception Not_found -> -1
    in
    if cached >= 0 then begin
      c.Counters.memo_hits <- c.Counters.memo_hits + 1;
      cached = 1
    end
    else begin
      c.Counters.memo_misses <- c.Counters.memo_misses + 1;
      Runtime.Budget.tick d.dbudget;
      let verdict = compute p v sub in
      if i >= 0 then
        Bytes.unsafe_set d.arena i
          (Char.unsafe_chr ((p.gen lsl 1) lor Bool.to_int verdict))
      else Sorted_ids.Tbl.replace d.spill ((sub.id lsl 31) lor v) verdict;
      verdict
    end
  end

(* How many distinct values x of (v, E) have [decide x psi = want],
   counting no further than [limit]: the early stop of ≥n, ≤n and ∀. *)
and count p v pr e psi ~want ~limit =
  if limit = 1 then Bool.to_int (some p v pr 0 psi want)
  else if pr.star <> -2 && psi.trivial then walk p v pr psi ~want ~limit
  else if Array.length pr.steps = 1 && pr.pids.(0) <> -2 then begin
    (* the rows of one (node, predicate) range hold distinct values *)
    charge p ~probe:true;
    let st = p.d.dst and pid = pr.pids.(0) and inv = pr.invs.(0) in
    let n = ref 0 in
    if pid >= 0 then begin
      let r = ref (step_lo st pid inv v) and hi = step_hi st pid inv v in
      while !r < hi && !n < limit do
        if decide p (step_value st inv !r) psi = want then incr n;
        incr r
      done
    end;
    !n
  end
  else begin
    charge p ~probe:false;
    let xs = Rdf.Path.Batch.eval p.d.dctx e v in
    let n = ref 0 and k = ref 0 in
    while !k < Array.length xs && !n < limit do
      if decide p xs.(!k) psi = want then incr n;
      incr k
    done;
    !n
  end

(* Whether some value x of (v, E_k/…/E_m) has [decide x psi = want],
   walking the steps from [k] without building any value set: a value
   reached twice is tested twice, which existence does not mind. *)
and some p v pr k psi want =
  if k = Array.length pr.steps then decide p v psi = want
  else begin
    let pid = pr.pids.(k) in
    charge p ~probe:(pid <> -2);
    let found = ref false in
    if pid = -2 then begin
      let xs = Rdf.Path.Batch.eval p.d.dctx pr.steps.(k) v in
      let i = ref 0 in
      while (not !found) && !i < Array.length xs do
        found := some p xs.(!i) pr (k + 1) psi want;
        incr i
      done
    end
    else if pid >= 0 then begin
      let st = p.d.dst and inv = pr.invs.(k) in
      let r = ref (step_lo st pid inv v) and hi = step_hi st pid inv v in
      while (not !found) && !r < hi do
        found := some p (step_value st inv !r) pr (k + 1) psi want;
        incr r
      done
    end;
    !found
  end

(* [count] over [s*] for a bare step [s] and a trivial body: a
   breadth-first walk of the closure that stops as soon as [limit]
   values qualify, with visit stamps in an array reused across walks.
   A trivial body never re-enters [count], so walks do not nest. *)
and walk p v pr psi ~want ~limit =
  charge p ~probe:false;
  let d = p.d in
  if Array.length d.seen < d.n_ids then begin
    d.seen <- Array.make d.n_ids 0;
    d.queue <- Array.make d.n_ids 0
  end;
  d.stamp <- d.stamp + 1;
  let stamp = d.stamp and seen = d.seen and queue = d.queue in
  let st = d.dst and pid = pr.star and inv = pr.star_inv in
  seen.(v) <- stamp;
  queue.(0) <- v;
  let n = ref (if decide p v psi = want then 1 else 0) in
  let head = ref 0 and tail = ref 1 in
  while !head < !tail && !n < limit do
    let x = queue.(!head) in
    incr head;
    if pid >= 0 then begin
      let c = !(d.dcounters) in
      c.Counters.store_lookups <- c.Counters.store_lookups + 1;
      let r = ref (step_lo st pid inv x) and hi = step_hi st pid inv x in
      while !r < hi && !n < limit do
        let y = step_value st inv !r in
        if seen.(y) <> stamp then begin
          seen.(y) <- stamp;
          queue.(!tail) <- y;
          incr tail;
          if decide p y psi = want then incr n
        end;
        incr r
      done
    end
  done;
  !n

and compute p v sub =
  match sub.phi with
  | Shape.Has_shape _ | Shape.Not (Shape.Has_shape _) ->
      decide p v (derived p.subs sub)
  | Shape.And _ ->
      let ok = ref true and i = ref 0 in
      while !ok && !i < Array.length sub.kids do
        ok := decide p v sub.kids.(!i);
        incr i
      done;
      !ok
  | Shape.Or _ ->
      let ok = ref false and i = ref 0 in
      while (not !ok) && !i < Array.length sub.kids do
        ok := decide p v sub.kids.(!i);
        incr i
      done;
      !ok
  | Shape.Ge (n, e, _) ->
      (* [Conformance]: ≥0 holds outright; a negative n holds at the
         first conforming value *)
      n = 0
      ||
      let limit = max n 1 in
      count p v (prep p.d sub) e sub.kids.(0) ~want:true ~limit >= limit
  | Shape.Le (n, e, _) ->
      (* n < 0 (the normal form of ¬≥0) admits no node *)
      n >= 0
      && count p v (prep p.d sub) e sub.kids.(0) ~want:true ~limit:(n + 1) <= n
  | Shape.Forall (e, _) ->
      count p v (prep p.d sub) e sub.kids.(0) ~want:false ~limit:1 = 0
  | Shape.Not atom -> not (holds p v sub atom)
  | atom -> holds p v sub atom

(* A positive atom at [v]; [sub] is the atom or its negation (they share
   a [prep]). *)
and holds p v sub atom =
  let st = p.d.dst in
  match atom with
  | Shape.Top -> true
  | Shape.Bottom -> false
  | Shape.Test t -> Node_test.satisfies t (Store.term st v)
  | Shape.Has_value c -> Term.equal (Store.term st v) c
  | Shape.Eq (Shape.Id, _) ->
      let pr = prep p.d sub in
      pr.prop >= 0
      &&
      let lo = Store.objects_lo st ~s:v ~p:pr.prop in
      Store.objects_hi st ~s:v ~p:pr.prop - lo = 1 && Store.spo_obj st lo = v
  | Shape.Disj (Shape.Id, _) ->
      let pr = prep p.d sub in
      pr.prop < 0 || not (Store.mem_ids st v pr.prop v)
  | Shape.Eq (Shape.Path e, _) ->
      let pr = prep p.d sub in
      Sorted_ids.equal (values p v pr e) (prop_values p v pr)
  | Shape.Disj (Shape.Path e, _) ->
      let pr = prep p.d sub in
      Sorted_ids.disjoint (values p v pr e) (prop_values p v pr)
  | Shape.Closed _ ->
      let allowed = (prep p.d sub).allowed in
      let ok = ref true and r = ref (Store.subject_lo st v) in
      let hi = Store.subject_hi st v in
      while !ok && !r < hi do
        ok := Sorted_ids.mem allowed (Store.spo_pred st !r);
        incr r
      done;
      !ok
  | Shape.Less_than (e, _) -> ordered p v sub e term_lt
  | Shape.Less_than_eq (e, _) -> ordered p v sub e term_leq
  | Shape.More_than (e, _) -> ordered p v sub e (fun x y -> term_lt y x)
  | Shape.More_than_eq (e, _) -> ordered p v sub e (fun x y -> term_leq y x)
  | Shape.Unique_lang e ->
      let xs = values p v (prep p.d sub) e in
      let n = Array.length xs in
      let rec clash i j =
        i < n
        && (if j >= n then clash (i + 1) (i + 2)
            else
              term_same_lang (Store.term st xs.(i)) (Store.term st xs.(j))
              || clash i (j + 1))
      in
      not (clash 0 1)
  | Shape.Has_shape _ | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _
  | Shape.Le _ | Shape.Forall _ ->
      (* not atoms *)
      assert false

(* x R y for every x in [[E]](v) and every y with (v, p, y) in G. *)
and ordered p v sub e rel =
  let st = p.d.dst in
  let pr = prep p.d sub in
  let xs = values p v pr e and ys = prop_values p v pr in
  Array.for_all
    (fun x ->
      let tx = Store.term st x in
      Array.for_all (fun y -> rel tx (Store.term st y)) ys)
    xs


(* ------------------------------------------------------------------ *)
(* Row collector: Table 2 after the verdict pass.                      *)
(* ------------------------------------------------------------------ *)

(* The naive algorithm's split (Section 3.3) in id space: the verdict
   pass decides, the collector traces.  For a pair the pass accepted it
   sends the canonical SPO rows of B(v, G, sub) to [emit].  Every
   verdict it needs — the witnesses of ≥n, of a ≤n body's negation, the
   disjuncts of [Or] — is read from the pass's memo through [decide], so
   Table 1 is decided once.  A pair is collected once per verdict
   function ([seen]): its collections share one sink.  Paths are
   evaluated and traced in the decider's kernel context, whose
   whole-trace memo matches witness arrays by physical identity — hence
   [Sorted_ids.filter], which hands back the kernel's own array when
   every value is a witness. *)
let rec collect p seen emit v sub =
  if not sub.trivial then begin
    let key = (sub.id lsl 31) lor v in
    if not (Sorted_ids.Tbl.mem seen key) then begin
      Sorted_ids.Tbl.add seen key ();
      Runtime.Budget.tick p.d.dbudget;
      collect_rows p seen emit v sub
    end
  end

and collect_rows p seen emit v sub =
  let d = p.d in
  let st = d.dst in
  let eval e =
    charge p ~probe:false;
    Rdf.Path.Batch.eval d.dctx e v
  in
  let trace e targets =
    Array.iter emit (Rdf.Path.Batch.trace d.dctx e ~sources:[| v |] ~targets)
  in
  (* the rows (v, p, y) of the compared property p with [keep y] *)
  let edges keep =
    let pid = (prep d sub).prop in
    if pid >= 0 then
      for r = Store.objects_lo st ~s:v ~p:pid
          to Store.objects_hi st ~s:v ~p:pid - 1 do
        if keep (Store.spo_obj st r) then emit r
      done
  in
  let term = Store.term st in
  match sub.phi with
  | Shape.Has_shape _ | Shape.Not (Shape.Has_shape _) ->
      collect p seen emit v (derived p.subs sub)
  | Shape.And _ -> Array.iter (collect p seen emit v) sub.kids
  | Shape.Or _ ->
      Array.iter (fun k -> if decide p v k then collect p seen emit v k) sub.kids
  | Shape.Forall (e, _) ->
      let xs = eval e in
      Array.iter (fun x -> collect p seen emit x sub.kids.(0)) xs;
      trace e xs
  | Shape.Ge (_, e, _) | Shape.Le (_, e, _) ->
      (* the witnesses of the body, of its negation for ≤n *)
      let body =
        match sub.phi with Shape.Le _ -> derived p.subs sub | _ -> sub.kids.(0)
      in
      let witnesses = Sorted_ids.filter (fun x -> decide p x body) (eval e) in
      Array.iter (fun x -> collect p seen emit x body) witnesses;
      trace e witnesses
  | Shape.Eq (Shape.Id, _) | Shape.Not (Shape.Disj (Shape.Id, _)) ->
      edges (fun y -> y = v)
  | Shape.Eq (Shape.Path e, q) ->
      let ep = alt sub e q in
      trace ep (eval ep)
  | Shape.Not (Shape.Eq (Shape.Id, _)) -> edges (fun y -> y <> v)
  | Shape.Not (Shape.Eq (Shape.Path e, _)) ->
      let reached = eval e in
      trace e (Sorted_ids.diff reached (prop_values p v (prep d sub)));
      edges (fun y -> not (Sorted_ids.mem reached y))
  | Shape.Not (Shape.Disj (Shape.Path e, _)) ->
      let common = Sorted_ids.inter (eval e) (prop_values p v (prep d sub)) in
      trace e common;
      edges (Sorted_ids.mem common)
  | Shape.Not
      (( Shape.Less_than (e, _) | Shape.Less_than_eq (e, _)
       | Shape.More_than (e, _) | Shape.More_than_eq (e, _) ) as atom) ->
      (* witness pairs (x, y), x in [[E]](v) and (v, p, y) in G, that
         violate the comparison: trace(E, v, x) plus (v, p, y) *)
      let violates = violates atom in
      let reached = eval e and objects = prop_values p v (prep d sub) in
      trace e
        (Sorted_ids.filter
           (fun x ->
             let tx = term x in
             Array.exists (fun y -> violates tx (term y)) objects)
           reached);
      edges (fun y ->
          let ty = term y in
          Array.exists (fun x -> violates (term x) ty) reached)
  | Shape.Not (Shape.Unique_lang e) ->
      let reached = eval e in
      trace e
        (Sorted_ids.filter
           (fun x ->
             let tx = term x in
             Array.exists
               (fun y -> y <> x && term_same_lang (term y) tx)
               reached)
           reached)
  | Shape.Not (Shape.Closed _) ->
      let allowed = (prep d sub).allowed in
      for r = Store.subject_lo st v to Store.subject_hi st v - 1 do
        if not (Sorted_ids.mem allowed (Store.spo_pred st r)) then emit r
      done
  | _ ->
      (* the remaining accepted atoms contribute no triples *)
      ()

type verdicts = {
  of_id : int -> bool;
  of_term : Term.t -> bool;
  collect : int -> (int -> unit) -> unit;
}

let verdicts ?counters ?(schema = Schema.empty) (d : decider) phi =
  let subs, root = resolve_root schema phi in
  let gen = 1 + (d.serial mod 127) in
  (* generation 1 again: the bytes of every earlier one go *)
  if gen = 1 then Bytes.fill d.arena 0 (Bytes.length d.arena) '\000';
  d.serial <- d.serial + 1;
  Sorted_ids.Tbl.reset d.spill;
  d.dcounters := (match counters with Some c -> c | None -> Counters.create ());
  let p = { d; serial = d.serial; gen; subs } in
  let current () =
    if d.serial <> p.serial then
      invalid_arg "Neighborhood.verdicts: replaced by a later verdict function"
  in
  let of_id v =
    current ();
    decide p v root
  in
  (* A focus node the dictionary never interned occurs in no triple:
     Table 1 decides it on the empty graph. *)
  let of_term x =
    match Store.id d.dst x with
    | Some v -> of_id v
    | None -> Conformance.conforms ~budget:d.dbudget schema Graph.empty x phi
  in
  let seen = Sorted_ids.Tbl.create 64 in
  let collect v emit =
    current ();
    collect p seen emit v root
  in
  { of_id; of_term; collect }

(* Rows may repeat within one [collect]: sort them out. *)
let check_with ?schema d v phi =
  let verdicts = verdicts ?schema d phi in
  match Store.id d.dst v with
  | None -> (verdicts.of_term v, Graph.empty)
  | Some id when verdicts.of_id id ->
      let rows = ref [] in
      verdicts.collect id (fun r -> rows := r :: !rows);
      let rows = Array.of_list (List.sort_uniq Int.compare !rows) in
      (true, Graph.of_rows d.dst rows)
  | Some _ -> (false, Graph.empty)

let naive_checker ?budget ?schema g phi =
  let conforms, go = make_naive ?budget ?schema g in
  let normalized = Shape.nnf phi in
  fun v ->
    if conforms v normalized then (true, go v normalized)
    else (false, Graph.empty)

let why_not ?schema g v phi =
  let conforms, _ = check ?schema g v phi in
  if conforms then None
  else
    let _, explanation = check ?schema g v (Shape.Not phi) in
    Some explanation
