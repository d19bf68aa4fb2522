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
    let pid = Option.get (Store.pred_id st p) in
    let lo, hi = Store.objects_range st ~s ~p:pid in
    let lo = ref lo and hi = ref hi in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if Store.spo_obj st mid <= o then lo := mid else hi := mid
    done;
    assert (Store.spo_obj st !lo = o);
    Rows.Flat [| !lo |]

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
