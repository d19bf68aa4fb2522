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

let count_lookup counters =
  match counters with
  | Some c -> c.Counters.memo_lookups <- c.Counters.memo_lookups + 1
  | None -> ()

let count_hit counters =
  match counters with
  | Some c -> c.Counters.memo_hits <- c.Counters.memo_hits + 1
  | None -> ()

let count_miss counters =
  match counters with
  | Some c -> c.Counters.memo_misses <- c.Counters.memo_misses + 1
  | None -> ()

let count_path_eval counters =
  match counters with
  | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
  | None -> ()

let count_store_lookup counters =
  match counters with
  | None -> ignore
  | Some c -> fun () -> c.Counters.store_lookups <- c.Counters.store_lookups + 1

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
(* Instrumented validator (Section 5.2): one pass computing both      *)
(* conformance and neighborhood, written once against a node space   *)
(* and instantiated over the term graph and over a frozen store's ids. *)
(* ------------------------------------------------------------------ *)

(* Sets of canonical SPO row ids — the batched engine's neighborhood
   representation.  A neighborhood is a subgraph of [g], so on a frozen
   graph a row set represents one exactly, and the engine ORs the rows
   straight into its fragment bitset without ever materializing a
   [Graph.t].

   The checker accumulates neighborhoods by repeated [union acc x]
   folds (And/Or and the quantifiers), so union must not copy: a row
   set is a rope — sorted leaf arrays concatenated in O(1) — flattened
   to one sorted duplicate-free [Flat] array by [seal] at the memo
   boundaries, where results are stored and shared.  Sealing per
   memoized subproblem keeps the flattening linear in the sizes of the
   stored neighborhoods, the same bill the persistent-graph
   representation pays for its balanced-tree unions. *)
module Rows = struct
  type t =
    | Flat of int array                     (* sorted, duplicate-free *)
    | Cat of { size : int; l : t; r : t }   (* both branches non-empty *)

  let empty = Flat [||]
  let size = function Flat a -> Array.length a | Cat c -> c.size
  let is_empty nb = size nb = 0

  let union a b =
    if is_empty a then b
    else if is_empty b then a
    else Cat { size = size a + size b; l = a; r = b }

  (* [size] counts leaf rows with multiplicity (a row reachable through
     two branches is copied twice into the scratch array), so [seal]
     costs the same row traffic the rope construction did, then one
     sort and an in-place dedup. *)
  let seal = function
    | Flat _ as nb -> nb
    | Cat _ as nb ->
        let out = Array.make (size nb) 0 in
        let k = ref 0 in
        let rec walk = function
          | Flat a ->
              Array.blit a 0 out !k (Array.length a);
              k := !k + Array.length a
          | Cat { l; r; _ } ->
              walk l;
              walk r
        in
        walk nb;
        Array.sort (fun (x : int) y -> compare x y) out;
        let n = Array.length out in
        let m = ref 0 in
        for i = 0 to n - 1 do
          if i = 0 || out.(i) <> out.(i - 1) then begin
            out.(!m) <- out.(i);
            incr m
          end
        done;
        Flat (if !m = n then out else Array.sub out 0 !m)

  let to_array nb = match seal nb with Flat a -> a | Cat _ -> assert false
end

(* A worker-lifetime id-space evaluation context: the kernel memo (and
   its whole-trace memo) is sound across checkers of different shapes —
   entries depend only on the frozen store — and the charge replay keeps
   budget totals independent of how much sharing actually happens, so a
   worker can reuse one context across every chunk it drains. *)
type row_env = Rdf.Path.Batch.ctx

let row_env ?(budget = Runtime.Budget.unlimited) ?counters ?lookup ?lookup_n
    g =
  match Graph.store g with
  | None -> invalid_arg "Neighborhood.row_env: graph has no frozen store"
  | Some st ->
      (* Omit the hooks that would do nothing: the kernel skips charge
         replay entirely for absent hooks, and an unlimited budget's
         step hook is a no-op closure it cannot see through. *)
      let step =
        if Runtime.Budget.is_unlimited budget then None
        else Some (Runtime.Budget.step_hook budget)
      in
      let lookup, lookup_n =
        match lookup, counters with
        | Some _, _ -> (lookup, lookup_n)
        | None, Some c ->
            ( Some
                (fun () ->
                  c.Counters.store_lookups <- c.Counters.store_lookups + 1),
              Some
                (fun k ->
                  c.Counters.store_lookups <- c.Counters.store_lookups + k) )
        | None, None -> (None, None)
      in
      Rdf.Path.Batch.create ?step ?lookup ?lookup_n st

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

(* What the instrumented checker needs of a node space: ascending node
   sets, a neighborhood accumulator, a memo keyed by node, and the graph
   probes.  [eval] makes its own counter bumps; the checker charges the
   budget tick before calling it. *)
module type NODE_SPACE = sig
  type env
  type node
  type set  (* ascending *)
  type nb

  module Memo : sig
    type 'a t

    val create : int -> 'a t
    val find_opt : 'a t -> node -> 'a option
    val add : 'a t -> node -> 'a -> unit
  end

  val same : node -> node -> bool
  val set_equal : set -> set -> bool
  val is_singleton : set -> node -> bool
  val mem : node -> set -> bool
  val disjoint : set -> set -> bool
  val inter : set -> set -> set
  val diff : set -> set -> set
  val is_empty : set -> bool

  val filter : (node -> bool) -> set -> set
  (** Ascending, one call per element; returns its argument when every
      element is kept (the id kernel's whole-trace memo matches target
      arrays by pointer). *)

  val for_all : (node -> bool) -> set -> bool
  (** Ascending, stopping at the first [false]. *)

  val exists : (node -> bool) -> set -> bool

  val empty : nb
  val union : nb -> nb -> nb
  val nb_is_empty : nb -> bool
  val seal : nb -> nb

  val eval : env -> Rdf.Path.t -> node -> set
  val objects : env -> node -> Iri.t -> set
  val trace : env -> Rdf.Path.t -> node -> targets:set -> nb
  val edge : env -> node -> Iri.t -> node -> nb
  val edges : env -> node -> Iri.t -> keep:(node -> bool) -> nb
  val closed : env -> node -> Iri.Set.t -> bool
  val outside : env -> node -> Iri.Set.t -> nb
  val term : env -> node -> Term.t
  val touch : env -> node -> unit
end

module Instrumented (S : NODE_SPACE) = struct
  let make ?counters ~budget ~schema env phi =
    let subs, root = resolve_root schema phi in
    (* the (node, subshape) memo: one table per resolved subshape, made
       on first use; expansions resolved later extend the array *)
    let memos = ref [||] in
    let memo sub =
      if sub.id >= Array.length !memos then
        memos :=
          Array.append !memos
            (Array.make (Subs.length subs.table - Array.length !memos) None);
      match !memos.(sub.id) with
      | Some m -> m
      | None ->
          let m = S.Memo.create 16 in
          !memos.(sub.id) <- Some m;
          m
    in
    let term = S.term env in
    let eval e v =
      Runtime.Budget.tick budget;
      S.eval env e v
    in
    let fail = (false, S.empty) in
    let rec go v sub =
      if sub.trivial then compute v sub
      else begin
        Runtime.Budget.tick budget;
        count_lookup counters;
        let memo = memo sub in
        match S.Memo.find_opt memo v with
        | Some cached ->
            count_hit counters;
            cached
        | None ->
            count_miss counters;
            let ((verdict, nb) as computed) = compute v sub in
            let sealed = S.seal nb in
            let result = if sealed == nb then computed else (verdict, sealed) in
            S.Memo.add memo v result;
            result
      end
    and compute v sub =
      S.touch env v;
      match sub.phi with
      | Shape.Top -> (true, S.empty)
      | Shape.Bottom -> fail
      | Shape.Test t -> (Node_test.satisfies t (term v), S.empty)
      | Shape.Has_value c -> (Term.equal (term v) c, S.empty)
      | Shape.Has_shape _ -> go v (derived subs sub)
      | Shape.Eq (Shape.Id, p) ->
          if S.is_singleton (S.objects env v p) v then (true, S.edge env v p v)
          else fail
      | Shape.Eq (Shape.Path e, p) ->
          let reached = eval e v in
          if S.set_equal reached (S.objects env v p) then begin
            let ep = alt sub e p in
            let targets = eval ep v in
            (true, S.trace env ep v ~targets)
          end
          else fail
      | Shape.Disj (Shape.Id, p) -> (not (S.mem v (S.objects env v p)), S.empty)
      | Shape.Disj (Shape.Path e, p) ->
          let reached = eval e v in
          (S.disjoint reached (S.objects env v p), S.empty)
      | Shape.Closed allowed -> (S.closed env v allowed, S.empty)
      | Shape.Less_than (e, p) -> (positive_cmp v e p term_lt, S.empty)
      | Shape.Less_than_eq (e, p) -> (positive_cmp v e p term_leq, S.empty)
      | Shape.More_than (e, p) ->
          (positive_cmp v e p (fun x y -> term_lt y x), S.empty)
      | Shape.More_than_eq (e, p) ->
          (positive_cmp v e p (fun x y -> term_leq y x), S.empty)
      | Shape.Unique_lang e ->
          let reached = eval e v in
          let ok =
            S.for_all
              (fun x ->
                let tx = term x in
                S.for_all
                  (fun y ->
                    let ty = term y in
                    Term.equal tx ty || not (term_same_lang tx ty))
                  reached)
              reached
          in
          (ok, S.empty)
      | Shape.And _ ->
          let rec all acc i =
            if i = Array.length sub.kids then (true, acc)
            else
              let c, bx = go v sub.kids.(i) in
              if c then all (S.union acc bx) (i + 1) else fail
          in
          all S.empty 0
      | Shape.Or _ ->
          Array.fold_left
            (fun (any, acc) psi ->
              let c, bx = go v psi in
              if c then (true, S.union acc bx) else (any, acc))
            fail sub.kids
      | Shape.Ge (n, e, _) ->
          let psi = sub.kids.(0) in
          let xs = eval e v in
          let count = ref 0 and acc = ref S.empty in
          let witnesses =
            S.filter
              (fun x ->
                let c, bx = go x psi in
                if c then begin
                  incr count;
                  acc := S.union !acc bx
                end;
                c)
              xs
          in
          if !count >= n then
            (true, S.union !acc (S.trace env e v ~targets:witnesses))
          else fail
      | Shape.Le (n, e, _) ->
          let neg = derived subs sub in
          let xs = eval e v in
          let sat_count = ref 0 and acc = ref S.empty in
          let witnesses =
            S.filter
              (fun x ->
                let c_neg, b_neg = go x neg in
                if c_neg then acc := S.union !acc b_neg else incr sat_count;
                c_neg)
              xs
          in
          if !sat_count <= n then
            (true, S.union !acc (S.trace env e v ~targets:witnesses))
          else fail
      | Shape.Forall (e, _) ->
          let psi = sub.kids.(0) in
          let xs = eval e v in
          let acc = ref S.empty in
          let ok =
            S.for_all
              (fun x ->
                let c, bx = go x psi in
                if c then acc := S.union !acc bx;
                c)
              xs
          in
          if ok then (true, S.union !acc (S.trace env e v ~targets:xs))
          else fail
      | Shape.Not inner -> compute_negated v sub inner
    and positive_cmp v e p holds =
      let reached = eval e v in
      let objects = S.objects env v p in
      S.for_all
        (fun x ->
          let tx = term x in
          S.for_all (fun y -> holds tx (term y)) objects)
        reached
    and compute_negated v sub inner =
      match inner with
      | Shape.Has_shape _ -> go v (derived subs sub)
      | Shape.Top -> fail
      | Shape.Bottom -> (true, S.empty)
      | Shape.Test t -> (not (Node_test.satisfies t (term v)), S.empty)
      | Shape.Has_value c -> (not (Term.equal (term v) c), S.empty)
      | Shape.Eq (Shape.Id, p) ->
          if S.is_singleton (S.objects env v p) v then fail
          else (true, S.edges env v p ~keep:(fun x -> not (S.same x v)))
      | Shape.Eq (Shape.Path e, p) ->
          let reached = eval e v in
          let objects = S.objects env v p in
          if S.set_equal reached objects then fail
          else begin
            let t1 = S.trace env e v ~targets:(S.diff reached objects) in
            let t2 = S.edges env v p ~keep:(fun x -> not (S.mem x reached)) in
            (true, S.union t1 t2)
          end
      | Shape.Disj (Shape.Id, p) ->
          if S.mem v (S.objects env v p) then (true, S.edge env v p v) else fail
      | Shape.Disj (Shape.Path e, p) ->
          let reached = eval e v in
          let common = S.inter reached (S.objects env v p) in
          if S.is_empty common then fail
          else begin
            let t = S.trace env e v ~targets:common in
            (true, S.union t (S.edges env v p ~keep:(fun x -> S.mem x common)))
          end
      | Shape.Less_than (e, p) | Shape.Less_than_eq (e, p)
      | Shape.More_than (e, p) | Shape.More_than_eq (e, p) ->
          let violates = violates inner in
          let reached = eval e v in
          let objects = S.objects env v p in
          let witnesses =
            S.filter
              (fun x ->
                let tx = term x in
                S.exists (fun y -> violates tx (term y)) objects)
              reached
          in
          let t = S.trace env e v ~targets:witnesses in
          let nb =
            S.union t
              (S.edges env v p ~keep:(fun y ->
                   let ty = term y in
                   S.exists (fun x -> violates (term x) ty) reached))
          in
          (* no violating pair: the positive comparison holds *)
          if S.nb_is_empty nb then fail else (true, nb)
      | Shape.Unique_lang e ->
          let reached = eval e v in
          let clashing =
            S.filter
              (fun x ->
                let tx = term x in
                S.exists
                  (fun y ->
                    let ty = term y in
                    (not (Term.equal ty tx)) && term_same_lang ty tx)
                  reached)
              reached
          in
          if S.is_empty clashing then fail
          else (true, S.trace env e v ~targets:clashing)
      | Shape.Closed allowed ->
          let nb = S.outside env v allowed in
          if S.nb_is_empty nb then fail else (true, nb)
      | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
      | Shape.Forall _ ->
          (* impossible after NNF *)
          assert false
    in
    fun v -> go v root
end

(* The term graph: [Path.eval] over the persistent maps, neighborhoods
   as graphs.  [touch] and [Path]'s [visit] hook report the anchor of
   every graph probe to the caller's [touched]. *)
module Terms = struct
  type env = {
    g : Graph.t;
    counters : Counters.t option;
    step : unit -> unit;
    lookup : unit -> unit;
    visit : (Term.t -> unit) option;
  }

  type node = Term.t
  type set = Term.Set.t
  type nb = Graph.t

  (* one structural hash per probe ([Term.hash] makes two) *)
  module Memo = Hashtbl.Make (struct
    type t = Term.t

    let equal = Term.equal
    let hash = Hashtbl.hash
  end)

  let same = Term.equal
  let set_equal = Term.Set.equal
  let is_singleton s v = Term.Set.equal s (Term.Set.singleton v)
  let mem = Term.Set.mem
  let disjoint = Term.Set.disjoint
  let inter = Term.Set.inter
  let diff = Term.Set.diff
  let is_empty = Term.Set.is_empty
  let filter = Term.Set.filter

  let for_all p s =
    let exception Stop in
    match Term.Set.iter (fun x -> if not (p x) then raise_notrace Stop) s with
    | () -> true
    | exception Stop -> false

  let exists = Term.Set.exists
  let empty = Graph.empty
  let union = Graph.union
  let nb_is_empty = Graph.is_empty
  let seal nb = nb

  let eval env e v =
    count_path_eval env.counters;
    Rdf.Path.eval ~step:env.step ~lookup:env.lookup ?visit:env.visit env.g e v

  let objects env v p = Graph.objects env.g v p

  let trace env e v ~targets =
    Rdf.Path.trace_all ~step:env.step ?visit:env.visit env.g e v ~targets

  let edge _ s p o = singleton s p o
  let edges env v p ~keep = p_triples env.g v p ~keep
  let closed env v allowed = Iri.Set.subset (Graph.out_predicates env.g v) allowed
  let outside env v allowed = outside_triples env.g v allowed
  let term _ v = v
  let touch env v = match env.visit with Some f -> f v | None -> ()
end

(* Sorted duplicate-free int arrays (kernel results). *)
let mem_sorted (arr : int array) x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length arr && arr.(!lo) = x

let arrays_equal (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec same i = i = n || (a.(i) = b.(i) && same (i + 1)) in
     same 0)

let inter_sorted (a : int array) (b : int array) =
  let out = Array.make (min (Array.length a) (Array.length b)) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else begin
      out.(!k) <- a.(!i);
      incr i;
      incr j;
      incr k
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let diff_sorted (a : int array) (b : int array) =
  let out = Array.make (Array.length a) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < Array.length a do
    if !j < Array.length b && b.(!j) < a.(!i) then incr j
    else begin
      if not (!j < Array.length b && b.(!j) = a.(!i)) then begin
        out.(!k) <- a.(!i);
        incr k
      end;
      incr i
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let disjoint_sorted (a : int array) (b : int array) =
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < Array.length a && !j < Array.length b do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else ok := false
  done;
  !ok

(* Int tables with the identity hash for the id space's hot memo keys
   (node ids and packed (path, node) keys): skips the generic hash's C
   call per probe. *)
module ITbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x
end)

(* A frozen store's ids: paths evaluated and traced by the id kernel
   ([Path.Batch]) of the worker's [row_env], value sets as the kernel's
   sorted id arrays, neighborhoods as row ropes, and adjacency probes
   read store ranges directly, so no term is hashed or compared on the
   hot path. *)
module Ids = struct
  type env = {
    st : Store.t;
    ctx : Rdf.Path.Batch.ctx;
    counters : Counters.t option;
    counted : unit ITbl.t;
        (* the (path, node) pairs this checker evaluated: its path-memo
           hit/miss classification, per checker (hence per chunk), so
           memo statistics do not depend on which worker drained which
           chunk even though the kernel context is shared *)
  }

  type node = int
  type set = int array
  type nb = Rows.t

  module Memo = ITbl

  let same (a : int) b = a = b
  let set_equal = arrays_equal
  let is_singleton s v = Array.length s = 1 && s.(0) = v
  let mem x s = mem_sorted s x
  let disjoint = disjoint_sorted
  let inter = inter_sorted
  let diff = diff_sorted
  let is_empty s = Array.length s = 0

  let filter keep (xs : int array) =
    let n = Array.length xs in
    let rec kept i = if i = n then xs else if keep xs.(i) then kept (i + 1) else from i
    and from i0 =
      let out = Array.make n 0 in
      Array.blit xs 0 out 0 i0;
      let k = ref i0 in
      for i = i0 + 1 to n - 1 do
        if keep xs.(i) then begin
          out.(!k) <- xs.(i);
          incr k
        end
      done;
      Array.sub out 0 !k
    in
    kept 0

  let for_all = Array.for_all
  let exists = Array.exists
  let empty = Rows.empty
  let union = Rows.union
  let nb_is_empty = Rows.is_empty
  let seal = Rows.seal

  (* Bare steps bypass the memo-hit accounting (a probe is as cheap as
     a memo hit) but still evaluate through the kernel: a fresh
     evaluation charges one step and one probe (two steps inverted), a
     kernel-memoized one replays exactly that — and returns the {e
     same} array object, which is what lets the whole-trace memo match
     witnesses by pointer.  Compound paths classify as hits
     (charge-free beyond the caller's tick) when this checker already
     evaluated them, or as misses, which evaluate in the kernel with
     the per-node-equivalent charge replayed. *)
  let eval env e vid =
    match e with
    | Rdf.Path.Prop _ | Rdf.Path.Inv (Rdf.Path.Prop _) ->
        count_path_eval env.counters;
        Rdf.Path.Batch.eval env.ctx e vid
    | _ -> (
        let c = env.counters in
        (match c with
        | Some c -> c.Counters.path_memo_lookups <- c.Counters.path_memo_lookups + 1
        | None -> ());
        let k = (Rdf.Path.Batch.intern env.ctx e lsl 31) lor vid in
        let cached =
          if ITbl.mem env.counted k then Rdf.Path.Batch.eval_cached env.ctx e vid
          else None
        in
        match cached with
        | Some targets ->
            (match c with
            | Some c -> c.Counters.path_memo_hits <- c.Counters.path_memo_hits + 1
            | None -> ());
            targets
        | None ->
            (match c with
            | Some c ->
                c.Counters.path_memo_misses <- c.Counters.path_memo_misses + 1
            | None -> ());
            count_path_eval c;
            ITbl.add env.counted k ();
            Rdf.Path.Batch.eval env.ctx e vid)

  let objects env vid p =
    match Store.pred_id env.st p with
    | None -> [||]
    | Some pid ->
        let lo, hi = Store.objects_range env.st ~s:vid ~p:pid in
        Array.init (hi - lo) (fun k -> Store.spo_obj env.st (lo + k))

  let trace env e vid ~targets =
    Rows.Flat (Rdf.Path.Batch.trace env.ctx e ~sources:[| vid |] ~targets)

  (* The SPO row of a triple known to be in the graph. *)
  let edge env s p o =
    let st = env.st in
    Rows.Flat [| Option.get (Store.triple_row st s (Option.get (Store.pred_id st p)) o) |]

  let edges env vid p ~keep =
    match Store.pred_id env.st p with
    | None -> Rows.empty
    | Some pid ->
        let lo, hi = Store.objects_range env.st ~s:vid ~p:pid in
        let acc = ref [] in
        for r = hi - 1 downto lo do
          if keep (Store.spo_obj env.st r) then acc := r :: !acc
        done;
        Rows.Flat (Array.of_list !acc)

  let allowed_row st allowed r =
    match Term.as_iri (Store.term st (Store.spo_pred st r)) with
    | Some iri -> Iri.Set.mem iri allowed
    | None -> false

  let closed env vid allowed =
    let lo, hi = Store.subject_range env.st vid in
    let rec ok r = r >= hi || (allowed_row env.st allowed r && ok (r + 1)) in
    ok lo

  let outside env vid allowed =
    let lo, hi = Store.subject_range env.st vid in
    let acc = ref [] in
    for r = hi - 1 downto lo do
      if not (allowed_row env.st allowed r) then acc := r :: !acc
    done;
    Rows.Flat (Array.of_list !acc)

  let term env i = Store.term env.st i
  let touch _ _ = ()
end

module Term_checker = Instrumented (Terms)
module Id_checker = Instrumented (Ids)

let checker ?counters ?(budget = Runtime.Budget.unlimited)
    ?(schema = Schema.empty) ?touched g phi =
  let env =
    { Terms.g;
      counters;
      step = Runtime.Budget.step_hook budget;
      lookup = count_store_lookup counters;
      visit = touched }
  in
  Term_checker.make ?counters ~budget ~schema env phi

let check ?budget ?schema g v phi = checker ?budget ?schema g phi v

let row_checker ?counters ?(budget = Runtime.Budget.unlimited)
    ?(schema = Schema.empty) ?env g phi =
  match Graph.store g with
  | None ->
      invalid_arg "Neighborhood.row_checker: graph has no frozen store"
  | Some st ->
      let ctx = match env with Some c -> c | None -> row_env ~budget ?counters g in
      let go =
        Id_checker.make ?counters ~budget ~schema
          { Ids.st; ctx; counters; counted = ITbl.create 256 }
          phi
      in
      (* A focus node the dictionary has never seen (a stray request
         constant) cannot enter id space.  It occurs in no triple, so its
         neighborhood is empty: the term checker decides the verdict, with
         the same charges, and no rows are emitted. *)
      let term_check = lazy (checker ?counters ~budget ~schema g phi) in
      fun v ->
        match Store.id st v with
        | Some vid ->
            let verdict, nb = go vid in
            (verdict, Rows.to_array nb)
        | None -> (fst ((Lazy.force term_check) v), [||])

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
  spill : bool ITbl.t;       (* verdicts of rows past [cap] *)
  mutable seen : int array;  (* star walks: visit stamps, and their queue *)
  mutable queue : int array;
  mutable stamp : int;
  mutable dcounters : Counters.t;
}

let decider ?(budget = Runtime.Budget.unlimited) ?lookup ?lookup_n st =
  let step =
    if Runtime.Budget.is_unlimited budget then None
    else Some (Runtime.Budget.step_hook budget)
  in
  let n_ids = Store.n_terms st in
  { dst = st;
    dctx = Rdf.Path.Batch.create ?step ?lookup ?lookup_n st;
    dbudget = budget;
    n_ids;
    (* 64 subshape rows, or 16 MiB when that holds more: past it a
       shape thousands of levels deep over a large graph spills to a
       table instead of reserving rows it may never reach *)
    cap = max (64 * n_ids) (16 lsl 20);
    arena = Bytes.empty;
    serial = 0;
    preps = [||];
    spill = ITbl.create 16;
    seen = [||];
    queue = [||];
    stamp = 0;
    dcounters = Counters.create () }

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
  let c = p.d.dcounters in
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
    let c = d.dcounters in
    c.Counters.memo_lookups <- c.Counters.memo_lookups + 1;
    let i = slot d sub v in
    let cached =
      if i >= 0 then
        let b = Char.code (Bytes.unsafe_get d.arena i) in
        if b lsr 1 = p.gen then b land 1 else -1
      else
        match ITbl.find d.spill ((sub.id lsl 31) lor v) with
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
      else ITbl.replace d.spill ((sub.id lsl 31) lor v) verdict;
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
      let c = d.dcounters in
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
      arrays_equal (values p v pr e) (prop_values p v pr)
  | Shape.Disj (Shape.Path e, _) ->
      let pr = prep p.d sub in
      disjoint_sorted (values p v pr e) (prop_values p v pr)
  | Shape.Closed _ ->
      let allowed = (prep p.d sub).allowed in
      let ok = ref true and r = ref (Store.subject_lo st v) in
      let hi = Store.subject_hi st v in
      while !ok && !r < hi do
        ok := mem_sorted allowed (Store.spo_pred st !r);
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

type verdicts = { of_id : int -> bool; of_term : Term.t -> bool }

let verdicts ?counters ?(schema = Schema.empty) (d : decider) phi =
  let subs, root = resolve_root schema phi in
  let gen = 1 + (d.serial mod 127) in
  (* generation 1 again: the bytes of every earlier one go *)
  if gen = 1 then Bytes.fill d.arena 0 (Bytes.length d.arena) '\000';
  d.serial <- d.serial + 1;
  ITbl.reset d.spill;
  d.dcounters <- (match counters with Some c -> c | None -> Counters.create ());
  let p = { d; serial = d.serial; gen; subs } in
  let of_id v =
    if d.serial <> p.serial then
      invalid_arg "Neighborhood.verdicts: replaced by a later verdict function";
    decide p v root
  in
  (* A focus node the dictionary never interned occurs in no triple:
     Table 1 decides it on the empty graph. *)
  let of_term x =
    match Store.id d.dst x with
    | Some v -> of_id v
    | None -> Conformance.conforms ~budget:d.dbudget schema Graph.empty x phi
  in
  { of_id; of_term }

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
