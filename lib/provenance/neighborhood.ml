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

let singleton s p o = Graph.add s p o Graph.empty

(* Triples (v, p, x) in g such that x satisfies [keep]. *)
let p_triples g v p ~keep =
  Term.Set.fold
    (fun x acc -> if keep x then Graph.add v p x acc else acc)
    (Graph.objects g v p)
    Graph.empty

(* ------------------------------------------------------------------ *)
(* Naive algorithm (Section 3.3): conformance checks and neighborhood *)
(* construction as separate recursions over Table 2.                  *)
(* ------------------------------------------------------------------ *)

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

let count_store_lookup counters =
  match counters with
  | None -> ignore
  | Some c -> fun () -> c.Counters.store_lookups <- c.Counters.store_lookups + 1

let make_naive ?counters ?(budget = Runtime.Budget.unlimited)
    ?(schema = Schema.empty) g =
  let memo : (Term.t * Shape.t, Graph.t) Hashtbl.t = Hashtbl.create 256 in
  let conforms = Conformance.memoized ?counters ~budget schema g in
  let eval e v =
    Runtime.Budget.tick budget;
    (match counters with
    | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
    | None -> ());
    Rdf.Path.eval
      ~step:(Runtime.Budget.step_hook budget)
      ~lookup:(count_store_lookup counters) g e v
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
      | _ ->
      Runtime.Budget.tick budget;
      count_lookup counters;
      match Hashtbl.find_opt memo (v, phi) with
      | Some cached -> count_hit counters; cached
      | None ->
          count_miss counters;
          let result = compute v phi in
          Hashtbl.add memo (v, phi) result;
          result
  (* Table 2, assuming conformance holds and phi is in NNF. *)
  and compute v phi =
    match phi with
    | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
    | Shape.Closed _ | Shape.Disj _ | Shape.Less_than _ | Shape.Less_than_eq _
    | Shape.More_than _ | Shape.More_than_eq _ | Shape.Unique_lang _ ->
        Graph.empty
    | Shape.Has_shape s -> go v (Shape.nnf (Schema.def_shape schema s))
    | Shape.Eq (Shape.Id, p) -> singleton v p v
    | Shape.Eq (Shape.Path e, p) ->
        (* graph(paths(E ∪ p, G, v, x)) for all x reachable by E ∪ p *)
        let ep = Rdf.Path.Alt (e, Rdf.Path.Prop p) in
        trace_all ep v ~targets:(eval ep v)
    | Shape.And l | Shape.Or l ->
        List.fold_left (fun acc psi -> Graph.union acc (go v psi)) Graph.empty l
    | Shape.Ge (_, e, psi) ->
        let witnesses =
          Term.Set.filter (fun x -> conforms x psi) (eval e v)
        in
        Term.Set.fold
          (fun x acc -> Graph.union acc (go x psi))
          witnesses
          (trace_all e v ~targets:witnesses)
    | Shape.Le (_, e, psi) ->
        let neg = Shape.nnf (Shape.Not psi) in
        let witnesses =
          Term.Set.filter (fun x -> conforms x neg) (eval e v)
        in
        Term.Set.fold
          (fun x acc -> Graph.union acc (go x neg))
          witnesses
          (trace_all e v ~targets:witnesses)
    | Shape.Forall (e, psi) ->
        let xs = eval e v in
        Term.Set.fold
          (fun x acc -> Graph.union acc (go x psi))
          xs
          (trace_all e v ~targets:xs)
    | Shape.Not inner -> compute_negated v inner
  and compute_negated v inner =
    match inner with
    | Shape.Has_shape s ->
        go v (Shape.nnf (Shape.Not (Schema.def_shape schema s)))
    | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _ ->
        Graph.empty
    | Shape.Eq (Shape.Id, p) -> p_triples g v p ~keep:(fun x -> not (Term.equal x v))
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval e v in
        let objects = Graph.objects g v p in
        let t1 =
          trace_all e v ~targets:(Term.Set.diff reached objects)
        in
        let t2 =
          p_triples g v p ~keep:(fun x -> not (Term.Set.mem x reached))
        in
        Graph.union t1 t2
    | Shape.Disj (Shape.Id, p) -> singleton v p v
    | Shape.Disj (Shape.Path e, p) ->
        let common =
          Term.Set.inter (eval e v) (Graph.objects g v p)
        in
        Term.Set.fold
          (fun x acc -> Graph.add v p x acc)
          common
          (trace_all e v ~targets:common)
    | Shape.Less_than (e, p) ->
        negated_comparison v e p ~violates:(fun x y -> not (term_lt x y))
    | Shape.Less_than_eq (e, p) ->
        negated_comparison v e p ~violates:(fun x y -> not (term_leq x y))
    | Shape.More_than (e, p) ->
        negated_comparison v e p ~violates:(fun x y -> not (term_lt y x))
    | Shape.More_than_eq (e, p) ->
        negated_comparison v e p ~violates:(fun x y -> not (term_leq y x))
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
        trace_all e v ~targets:clashing
    | Shape.Closed allowed ->
        List.fold_left
          (fun acc t ->
            if Iri.Set.mem (Triple.predicate t) allowed then acc
            else Graph.add_triple t acc)
          Graph.empty (Graph.subject_triples g v)
    | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
    | Shape.Forall _ ->
        (* impossible after NNF *)
        assert false
  (* Witness pairs (x, y) with x in [[E]](v), (v, p, y) in G and the
     comparison violated: contribute trace(E, v, x) plus (v, p, y). *)
  and negated_comparison v e p ~violates =
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
    Term.Set.fold
      (fun y acc -> Graph.add v p y acc)
      witnesses_y
      (trace_all e v ~targets:witnesses_x)
  in
  conforms, go

let b ?budget ?schema g v phi =
  let _, go = make_naive ?budget ?schema g in
  go v (Shape.nnf phi)

(* ------------------------------------------------------------------ *)
(* Instrumented validator (Section 5.2): one pass computing both      *)
(* conformance and neighborhood, over the term graph or, on a frozen  *)
(* store, over row ids.                                               *)
(* ------------------------------------------------------------------ *)

(* Sets of canonical SPO row ids — the batched engine's neighborhood
   representation.  A neighborhood is a subgraph of [g], so on a frozen
   graph a row set represents one exactly, and the engine ORs the rows
   straight into its fragment bitset without ever materializing a
   [Graph.t].

   The row core below accumulates neighborhoods by repeated
   [union acc x] folds (And/Or and the quantifiers), so union must not
   copy: a row set is a rope — sorted leaf arrays concatenated in O(1)
   — flattened to one sorted duplicate-free [Flat] array by [seal] at
   the memo boundaries, where results are stored and shared.  Sealing
   per memoized subproblem keeps the flattening linear in the sizes of
   the stored neighborhoods, the same bill the persistent-graph
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

(* ------------------------------------------------------------------ *)
(* Id-space row core: the instrumented checker specialized to the     *)
(* frozen store.  Semantically the term core below, transcribed to    *)
(* dense ids — value sets are the kernel's sorted id arrays, the      *)
(* (node, shape) memo is keyed by ints, and adjacency probes read     *)
(* store ranges directly, so no term is hashed or compared on the hot *)
(* path.  Verdicts, rows, budget ticks, step charges and counter      *)
(* bumps mirror the term core's case for case.                        *)
(* ------------------------------------------------------------------ *)

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

(* Int tables with the identity hash for the id core's hot memo keys
   (node ids and packed (path, node) keys): skips the generic hash's C
   call per probe. *)
module ITbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x
end)

(* Per-shape-occurrence state, resolved by physical identity: the
   normalized shape tree is fixed for a checker's lifetime, so every
   subshape arrives as the same object on every call.  [rp_tbl] is the
   (node, shape) memo partition for this subshape; [rp_neg]/[rp_alt]
   cache the derived forms the term core rebuilds per call. *)
type row_phi_info = {
  rp_tbl : (bool * Rows.t) ITbl.t;
  mutable rp_neg : Shape.t option;
  mutable rp_alt : Rdf.Path.t option;
}

let make_row_core ?counters ~budget ~schema st ctx =
  let infos : (Shape.t * row_phi_info) list ref = ref [] in
  let last_phi = ref (Shape.And []) in
  let last_info =
    ref { rp_tbl = ITbl.create 1; rp_neg = None; rp_alt = None }
  in
  let intern_phi phi =
    if !last_phi == phi then !last_info
    else begin
      let info =
        match List.assq_opt phi !infos with
        | Some i -> i
        | None ->
            (* First sighting of this object.  The term core's memo is
               keyed structurally, so a structurally equal subshape seen
               under another object must share its partition for hit
               counts to match; the scan runs once per physical
               subshape. *)
            let i =
              match
                List.find_opt (fun (q, _) -> Shape.equal q phi) !infos
              with
              | Some (_, i) -> i
              | None ->
                  { rp_tbl = ITbl.create 64; rp_neg = None; rp_alt = None }
            in
            infos := (phi, i) :: !infos;
            i
      in
      last_phi := phi;
      last_info := info;
      info
    end
  in
  (* Reference expansions, cached per name so the expanded shape is
     physically stable (the term core re-normalizes per call). *)
  let pos_defs : (Term.t, Shape.t) Hashtbl.t = Hashtbl.create 8 in
  let neg_defs : (Term.t, Shape.t) Hashtbl.t = Hashtbl.create 8 in
  let expand_pos name =
    match Hashtbl.find_opt pos_defs name with
    | Some sh -> sh
    | None ->
        let sh = Shape.nnf (Schema.def_shape schema name) in
        Hashtbl.add pos_defs name sh;
        sh
  in
  let expand_neg name =
    match Hashtbl.find_opt neg_defs name with
    | Some sh -> sh
    | None ->
        let sh = Shape.nnf (Shape.Not (Schema.def_shape schema name)) in
        Hashtbl.add neg_defs name sh;
        sh
  in
  let term i = Store.term st i in
  let objects_arr vid p =
    match Store.pred_id st p with
    | None -> [||]
    | Some pid ->
        let lo, hi = Store.objects_range st ~s:vid ~p:pid in
        Array.init (hi - lo) (fun k -> Store.spo_obj st (lo + k))
  in
  (* The SPO row of a triple known to be in the graph. *)
  let row_between s p o =
    match Store.pred_id st p with
    | None -> assert false
    | Some pid ->
        let lo = ref (fst (Store.objects_range st ~s ~p:pid))
        and hi = ref (snd (Store.objects_range st ~s ~p:pid)) in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if Store.spo_obj st mid <= o then lo := mid else hi := mid
        done;
        assert (Store.spo_obj st !lo = o);
        !lo
  in
  let p_rows vid p ~keep =
    match Store.pred_id st p with
    | None -> Rows.empty
    | Some pid ->
        let lo, hi = Store.objects_range st ~s:vid ~p:pid in
        let acc = ref [] in
        for r = hi - 1 downto lo do
          if keep (Store.spo_obj st r) then acc := r :: !acc
        done;
        Rows.Flat (Array.of_list !acc)
  in
  let trace e vid ~targets =
    Rows.Flat (Rdf.Path.Batch.trace ctx e ~sources:[| vid |] ~targets)
  in
  let bump_path_evals () =
    match counters with
    | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
    | None -> ()
  in
  (* Charged path evaluation over the worker's kernel context: bare
     steps are not classified and pay their charge directly; compound
     paths classify as hits (charge-free beyond the tick) when this
     checker already evaluated them, or as misses, which evaluate in
     the kernel with the per-node-equivalent charge replayed.
     [counted] is the per-checker (hence per-chunk) classification
     table, so memo statistics do not depend on which worker drained
     which chunk even though the context is shared. *)
  let counted : unit ITbl.t = ITbl.create 256 in
  let eval_path e vid =
    Runtime.Budget.tick budget;
    match e with
    | Rdf.Path.Prop _ | Rdf.Path.Inv (Rdf.Path.Prop _) ->
        (* bare steps bypass the memo-hit accounting (a probe is as
           cheap as a memo hit), but still evaluate through the kernel:
           a fresh evaluation charges one step and one probe (two steps
           inverted), a kernel-memoized one replays exactly that — and
           returns the {e same} array object, which is what lets the
           whole-trace memo match witnesses by pointer *)
        bump_path_evals ();
        Rdf.Path.Batch.eval ctx e vid
    | _ -> (
        (match counters with
        | Some c ->
            c.Counters.path_memo_lookups <- c.Counters.path_memo_lookups + 1
        | None -> ());
        let k = (Rdf.Path.Batch.intern ctx e lsl 31) lor vid in
        let cached =
          if ITbl.mem counted k then Rdf.Path.Batch.eval_cached ctx e vid
          else None
        in
        match cached with
        | Some targets ->
            (match counters with
            | Some c ->
                c.Counters.path_memo_hits <- c.Counters.path_memo_hits + 1
            | None -> ());
            targets
        | None ->
            (match counters with
            | Some c ->
                c.Counters.path_memo_misses <- c.Counters.path_memo_misses + 1
            | None -> ());
            bump_path_evals ();
            ITbl.add counted k ();
            Rdf.Path.Batch.eval ctx e vid)
  in
  let has_value c vid =
    match Store.id st c with Some cid -> cid = vid | None -> false
  in
  let rec go vid phi =
    match phi with
    | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
    | Shape.Not (Shape.Test _ | Shape.Has_value _ | Shape.Top | Shape.Bottom)
      ->
        compute vid phi
    | _ -> (
        Runtime.Budget.tick budget;
        count_lookup counters;
        let info = intern_phi phi in
        match ITbl.find_opt info.rp_tbl vid with
        | Some cached ->
            count_hit counters;
            cached
        | None ->
            count_miss counters;
            let verdict, nb = compute vid phi in
            let result = (verdict, Rows.seal nb) in
            ITbl.add info.rp_tbl vid result;
            result)
  and compute vid phi =
    match phi with
    | Shape.Top -> (true, Rows.empty)
    | Shape.Bottom -> (false, Rows.empty)
    | Shape.Test t -> (Node_test.satisfies t (term vid), Rows.empty)
    | Shape.Has_value c -> (has_value c vid, Rows.empty)
    | Shape.Has_shape s -> go vid (expand_pos s)
    | Shape.Eq (Shape.Id, p) ->
        if arrays_equal (objects_arr vid p) [| vid |] then
          (true, Rows.Flat [| row_between vid p vid |])
        else (false, Rows.empty)
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval_path e vid in
        if arrays_equal reached (objects_arr vid p) then begin
          let info = intern_phi phi in
          let ep =
            match info.rp_alt with
            | Some ep -> ep
            | None ->
                let ep = Rdf.Path.Alt (e, Rdf.Path.Prop p) in
                info.rp_alt <- Some ep;
                ep
          in
          (true, trace ep vid ~targets:(eval_path ep vid))
        end
        else (false, Rows.empty)
    | Shape.Disj (Shape.Id, p) ->
        (not (mem_sorted (objects_arr vid p) vid), Rows.empty)
    | Shape.Disj (Shape.Path e, p) ->
        (disjoint_sorted (eval_path e vid) (objects_arr vid p), Rows.empty)
    | Shape.Closed allowed ->
        let lo, hi = Store.subject_range st vid in
        let ok = ref true in
        let r = ref lo in
        while !ok && !r < hi do
          (match Term.as_iri (Store.term st (Store.spo_pred st !r)) with
          | Some iri -> if not (Iri.Set.mem iri allowed) then ok := false
          | None -> ok := false);
          incr r
        done;
        (!ok, Rows.empty)
    | Shape.Less_than (e, p) -> (positive_cmp vid e p term_lt, Rows.empty)
    | Shape.Less_than_eq (e, p) -> (positive_cmp vid e p term_leq, Rows.empty)
    | Shape.More_than (e, p) ->
        (positive_cmp vid e p (fun x y -> term_lt y x), Rows.empty)
    | Shape.More_than_eq (e, p) ->
        (positive_cmp vid e p (fun x y -> term_leq y x), Rows.empty)
    | Shape.Unique_lang e ->
        let values = Array.map term (eval_path e vid) in
        let ok =
          Array.for_all
            (fun x ->
              Array.for_all
                (fun y -> Term.equal x y || not (term_same_lang x y))
                values)
            values
        in
        (ok, Rows.empty)
    | Shape.And l ->
        let rec all acc = function
          | [] -> (true, acc)
          | psi :: rest ->
              let c, bx = go vid psi in
              if c then all (Rows.union acc bx) rest else (false, Rows.empty)
        in
        all Rows.empty l
    | Shape.Or l ->
        List.fold_left
          (fun (any, acc) psi ->
            let c, bx = go vid psi in
            if c then (true, Rows.union acc bx) else (any, acc))
          (false, Rows.empty) l
    | Shape.Ge (n, e, psi) ->
        let xs = eval_path e vid in
        (* witnesses are the conforming prefix of [xs] until the first
           failure, so no per-witness list is allocated in the common
           all-conform case — and reusing [xs] itself as the target
           array is what lets the whole-trace memo match by pointer *)
        let witnesses = ref [] and count = ref 0 and acc = ref Rows.empty in
        let prefix = ref true in
        Array.iteri
          (fun i x ->
            let c, bx = go x psi in
            if c then begin
              if not !prefix then witnesses := x :: !witnesses;
              incr count;
              acc := Rows.union !acc bx
            end
            else if !prefix then begin
              prefix := false;
              for k = i - 1 downto 0 do
                witnesses := xs.(k) :: !witnesses
              done;
              witnesses := List.rev !witnesses
            end)
          xs;
        if !count >= n then begin
          let w =
            if !prefix then xs
            else begin
              let w = Array.make !count 0 in
              List.iteri (fun k x -> w.(!count - 1 - k) <- x) !witnesses;
              w
            end
          in
          (true, Rows.union !acc (trace e vid ~targets:w))
        end
        else (false, Rows.empty)
    | Shape.Le (n, e, psi) ->
        let info = intern_phi phi in
        let neg =
          match info.rp_neg with
          | Some s -> s
          | None ->
              let s = Shape.nnf (Shape.Not psi) in
              info.rp_neg <- Some s;
              s
        in
        let xs = eval_path e vid in
        let sat_count = ref 0
        and witnesses = ref []
        and nw = ref 0
        and acc = ref Rows.empty in
        Array.iter
          (fun x ->
            let c_neg, b_neg = go x neg in
            if c_neg then begin
              witnesses := x :: !witnesses;
              incr nw;
              acc := Rows.union !acc b_neg
            end
            else incr sat_count)
          xs;
        if !sat_count <= n then begin
          let w =
            if !nw = Array.length xs then xs
            else begin
              let w = Array.make !nw 0 in
              List.iteri (fun k x -> w.(!nw - 1 - k) <- x) !witnesses;
              w
            end
          in
          (true, Rows.union !acc (trace e vid ~targets:w))
        end
        else (false, Rows.empty)
    | Shape.Forall (e, psi) ->
        let xs = eval_path e vid in
        let ok = ref true and acc = ref Rows.empty in
        let i = ref 0 in
        while !ok && !i < Array.length xs do
          let c, bx = go xs.(!i) psi in
          if c then acc := Rows.union !acc bx
          else begin
            ok := false;
            acc := Rows.empty
          end;
          incr i
        done;
        if !ok then (true, Rows.union !acc (trace e vid ~targets:xs))
        else (false, Rows.empty)
    | Shape.Not inner -> check_negated vid inner
  and positive_cmp vid e p holds =
    let reached = eval_path e vid in
    let objs = objects_arr vid p in
    Array.for_all
      (fun x ->
        let tx = term x in
        Array.for_all (fun y -> holds tx (term y)) objs)
      reached
  and check_negated vid inner =
    match inner with
    | Shape.Has_shape s -> go vid (expand_neg s)
    | Shape.Top -> (false, Rows.empty)
    | Shape.Bottom -> (true, Rows.empty)
    | Shape.Test t -> (not (Node_test.satisfies t (term vid)), Rows.empty)
    | Shape.Has_value c -> (not (has_value c vid), Rows.empty)
    | Shape.Eq (Shape.Id, p) ->
        if arrays_equal (objects_arr vid p) [| vid |] then (false, Rows.empty)
        else (true, p_rows vid p ~keep:(fun o -> o <> vid))
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval_path e vid in
        let objs = objects_arr vid p in
        if arrays_equal reached objs then (false, Rows.empty)
        else begin
          let t1 = trace e vid ~targets:(diff_sorted reached objs) in
          let t2 = p_rows vid p ~keep:(fun o -> not (mem_sorted reached o)) in
          (true, Rows.union t1 t2)
        end
    | Shape.Disj (Shape.Id, p) ->
        if mem_sorted (objects_arr vid p) vid then
          (true, Rows.Flat [| row_between vid p vid |])
        else (false, Rows.empty)
    | Shape.Disj (Shape.Path e, p) ->
        let common = inter_sorted (eval_path e vid) (objects_arr vid p) in
        if Array.length common = 0 then (false, Rows.empty)
        else begin
          let acc = ref (trace e vid ~targets:common) in
          Array.iter
            (fun x ->
              acc := Rows.union !acc (Rows.Flat [| row_between vid p x |]))
            common;
          (true, !acc)
        end
    | Shape.Less_than (e, p) ->
        negated_cmp vid e p ~violates:(fun x y -> not (term_lt x y))
    | Shape.Less_than_eq (e, p) ->
        negated_cmp vid e p ~violates:(fun x y -> not (term_leq x y))
    | Shape.More_than (e, p) ->
        negated_cmp vid e p ~violates:(fun x y -> not (term_lt y x))
    | Shape.More_than_eq (e, p) ->
        negated_cmp vid e p ~violates:(fun x y -> not (term_leq y x))
    | Shape.Unique_lang e ->
        let reached = eval_path e vid in
        let terms = Array.map term reached in
        let keep = ref [] and nk = ref 0 in
        for i = Array.length reached - 1 downto 0 do
          let clashes = ref false in
          Array.iter
            (fun y ->
              if
                (not (Term.equal y terms.(i)))
                && term_same_lang y terms.(i)
              then clashes := true)
            terms;
          if !clashes then begin
            keep := reached.(i) :: !keep;
            incr nk
          end
        done;
        if !nk = 0 then (false, Rows.empty)
        else (true, trace e vid ~targets:(Array.of_list !keep))
    | Shape.Closed allowed ->
        let lo, hi = Store.subject_range st vid in
        let acc = ref [] in
        for r = hi - 1 downto lo do
          match Term.as_iri (Store.term st (Store.spo_pred st r)) with
          | Some iri when Iri.Set.mem iri allowed -> ()
          | _ -> acc := r :: !acc
        done;
        if !acc = [] then (false, Rows.empty)
        else (true, Rows.Flat (Array.of_list !acc))
    | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
    | Shape.Forall _ ->
        (* impossible after NNF *)
        assert false
  and negated_cmp vid e p ~violates =
    let reached = eval_path e vid in
    let objs = objects_arr vid p in
    let rterms = Array.map term reached in
    let oterms = Array.map term objs in
    let wx = ref [] and nx = ref 0 in
    for i = Array.length reached - 1 downto 0 do
      if Array.exists (fun y -> violates rterms.(i) y) oterms then begin
        wx := reached.(i) :: !wx;
        incr nx
      end
    done;
    let acc = ref (trace e vid ~targets:(Array.of_list !wx)) in
    for j = 0 to Array.length objs - 1 do
      if Array.exists (fun x -> violates x oterms.(j)) rterms then
        acc := Rows.union !acc (Rows.Flat [| row_between vid p objs.(j) |])
    done;
    if Rows.is_empty !acc then (false, Rows.empty) else (true, !acc)
  in
  go

let make_instrumented ?counters ?(budget = Runtime.Budget.unlimited)
    ?(schema = Schema.empty) ?touched g =
  let memo : (Term.t * Shape.t, bool * Graph.t) Hashtbl.t = Hashtbl.create 256 in
  (* [touched] collects the anchor of every graph probe this instance
     makes: each focus node entering [compute] (all non-path probes —
     [Graph.objects]/[out_predicates]/[subject_triples] — are anchored
     at the focus) plus every path-evaluation and trace anchor via
     [Path]'s [?visit] hook.  The resulting set is a sound dependency
     set for the verdict and the neighborhood: a re-run on a graph
     whose changed triples have neither endpoint in it makes exactly
     the same probes with exactly the same answers. *)
  let eval e v =
    Runtime.Budget.tick budget;
    (match counters with
    | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
    | None -> ());
    Rdf.Path.eval
      ~step:(Runtime.Budget.step_hook budget)
      ~lookup:(count_store_lookup counters) ?visit:touched g e v
  in
  let trace_all e v ~targets =
    Rdf.Path.trace_all
      ~step:(Runtime.Budget.step_hook budget)
      ?visit:touched g e v ~targets
  in
  let touch v = match touched with Some f -> f v | None -> () in
  let p_triples v p ~keep = p_triples g v p ~keep in
  let rec go v phi =
    match phi with
    | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
    | Shape.Not (Shape.Test _ | Shape.Has_value _ | Shape.Top | Shape.Bottom)
      ->
        (* memoizing trivia costs more than recomputing it *)
        compute v phi
    | _ -> (
        Runtime.Budget.tick budget;
        count_lookup counters;
        match Hashtbl.find_opt memo (v, phi) with
        | Some cached -> count_hit counters; cached
        | None ->
            count_miss counters;
            let result = compute v phi in
            Hashtbl.add memo (v, phi) result;
            result)
  and compute v phi =
    touch v;
    match phi with
    | Shape.Top -> (true, Graph.empty)
    | Shape.Bottom -> (false, Graph.empty)
    | Shape.Test t -> (Node_test.satisfies t v, Graph.empty)
    | Shape.Has_value c -> (Term.equal v c, Graph.empty)
    | Shape.Has_shape s -> go v (Shape.nnf (Schema.def_shape schema s))
    | Shape.Eq (Shape.Id, p) ->
        if Term.Set.equal (Graph.objects g v p) (Term.Set.singleton v) then
          (true, singleton v p v)
        else (false, Graph.empty)
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval e v in
        if Term.Set.equal reached (Graph.objects g v p) then
          let ep = Rdf.Path.Alt (e, Rdf.Path.Prop p) in
          (true, trace_all ep v ~targets:(eval ep v))
        else (false, Graph.empty)
    | Shape.Disj (Shape.Id, p) ->
        (not (Term.Set.mem v (Graph.objects g v p)), Graph.empty)
    | Shape.Disj (Shape.Path e, p) ->
        ( Term.Set.disjoint (eval e v) (Graph.objects g v p),
          Graph.empty )
    | Shape.Closed allowed ->
        (Iri.Set.subset (Graph.out_predicates g v) allowed, Graph.empty)
    | Shape.Less_than (e, p) -> (positive_comparison v e p term_lt, Graph.empty)
    | Shape.Less_than_eq (e, p) ->
        (positive_comparison v e p term_leq, Graph.empty)
    | Shape.More_than (e, p) ->
        (positive_comparison v e p (fun x y -> term_lt y x), Graph.empty)
    | Shape.More_than_eq (e, p) ->
        (positive_comparison v e p (fun x y -> term_leq y x), Graph.empty)
    | Shape.Unique_lang e ->
        let values = Term.Set.elements (eval e v) in
        let ok =
          List.for_all
            (fun x ->
              List.for_all
                (fun y -> Term.equal x y || not (term_same_lang x y))
                values)
            values
        in
        (ok, Graph.empty)
    | Shape.And l ->
        let rec all acc = function
          | [] -> (true, acc)
          | psi :: rest ->
              let c, bx = go v psi in
              if c then all (Graph.union acc bx) rest else (false, Graph.empty)
        in
        all Graph.empty l
    | Shape.Or l ->
        List.fold_left
          (fun (any, acc) psi ->
            let c, bx = go v psi in
            if c then (true, Graph.union acc bx) else (any, acc))
          (false, Graph.empty) l
    | Shape.Ge (n, e, psi) ->
        let xs = eval e v in
        let witnesses, acc =
          Term.Set.fold
            (fun x (witnesses, acc) ->
              let c, bx = go x psi in
              if c then Term.Set.add x witnesses, Graph.union acc bx
              else witnesses, acc)
            xs
            (Term.Set.empty, Graph.empty)
        in
        if Term.Set.cardinal witnesses >= n then
          (true, Graph.union acc (trace_all e v ~targets:witnesses))
        else (false, Graph.empty)
    | Shape.Le (n, e, psi) ->
        let neg = Shape.nnf (Shape.Not psi) in
        let xs = eval e v in
        let sat_count, witnesses, acc =
          Term.Set.fold
            (fun x (sat_count, witnesses, acc) ->
              let c_neg, b_neg = go x neg in
              if c_neg then
                sat_count, Term.Set.add x witnesses, Graph.union acc b_neg
              else sat_count + 1, witnesses, acc)
            xs
            (0, Term.Set.empty, Graph.empty)
        in
        if sat_count <= n then
          (true, Graph.union acc (trace_all e v ~targets:witnesses))
        else (false, Graph.empty)
    | Shape.Forall (e, psi) ->
        let xs = eval e v in
        let ok, acc =
          Term.Set.fold
            (fun x (ok, acc) ->
              if not ok then (false, acc)
              else
                let c, bx = go x psi in
                if c then (true, Graph.union acc bx)
                else (false, Graph.empty))
            xs (true, Graph.empty)
        in
        if ok then (true, Graph.union acc (trace_all e v ~targets:xs))
        else (false, Graph.empty)
    | Shape.Not inner -> check_negated v inner
  and positive_comparison v e p holds =
    let reached = eval e v in
    let objects = Graph.objects g v p in
    Term.Set.for_all
      (fun x -> Term.Set.for_all (fun y -> holds x y) objects)
      reached
  and check_negated v inner =
    match inner with
    | Shape.Has_shape s ->
        go v (Shape.nnf (Shape.Not (Schema.def_shape schema s)))
    | Shape.Top -> (false, Graph.empty)
    | Shape.Bottom -> (true, Graph.empty)
    | Shape.Test t -> (not (Node_test.satisfies t v), Graph.empty)
    | Shape.Has_value c -> (not (Term.equal v c), Graph.empty)
    | Shape.Eq (Shape.Id, p) ->
        let objects = Graph.objects g v p in
        if Term.Set.equal objects (Term.Set.singleton v) then
          (false, Graph.empty)
        else
          (true, p_triples v p ~keep:(fun x -> not (Term.equal x v)))
    | Shape.Eq (Shape.Path e, p) ->
        let reached = eval e v in
        let objects = Graph.objects g v p in
        if Term.Set.equal reached objects then (false, Graph.empty)
        else begin
          let t1 =
            trace_all e v ~targets:(Term.Set.diff reached objects)
          in
          let t2 =
            p_triples v p ~keep:(fun x -> not (Term.Set.mem x reached))
          in
          (true, Graph.union t1 t2)
        end
    | Shape.Disj (Shape.Id, p) ->
        if Term.Set.mem v (Graph.objects g v p) then (true, singleton v p v)
        else (false, Graph.empty)
    | Shape.Disj (Shape.Path e, p) ->
        let common =
          Term.Set.inter (eval e v) (Graph.objects g v p)
        in
        if Term.Set.is_empty common then (false, Graph.empty)
        else
          ( true,
            Term.Set.fold
              (fun x acc -> Graph.add v p x acc)
              common
              (trace_all e v ~targets:common) )
    | Shape.Less_than (e, p) ->
        negated_comparison_check v e p ~violates:(fun x y -> not (term_lt x y))
    | Shape.Less_than_eq (e, p) ->
        negated_comparison_check v e p ~violates:(fun x y ->
            not (term_leq x y))
    | Shape.More_than (e, p) ->
        negated_comparison_check v e p ~violates:(fun x y -> not (term_lt y x))
    | Shape.More_than_eq (e, p) ->
        negated_comparison_check v e p ~violates:(fun x y ->
            not (term_leq y x))
    | Shape.Unique_lang e ->
        let reached = eval e v in
        let witnesses =
          Term.Set.filter
            (fun x ->
              Term.Set.exists
                (fun y -> (not (Term.equal y x)) && term_same_lang y x)
                reached)
            reached
        in
        if Term.Set.is_empty witnesses then (false, Graph.empty)
        else (true, trace_all e v ~targets:witnesses)
    | Shape.Closed allowed ->
        let outside =
          List.fold_left
            (fun acc t ->
              if Iri.Set.mem (Triple.predicate t) allowed then acc
              else Graph.add_triple t acc)
            Graph.empty (Graph.subject_triples g v)
        in
        if Graph.is_empty outside then (false, Graph.empty)
        else (true, outside)
    | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
    | Shape.Forall _ ->
        assert false
  and negated_comparison_check v e p ~violates =
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
    let acc =
      Term.Set.fold
        (fun y acc -> Graph.add v p y acc)
        witnesses_y
        (trace_all e v ~targets:witnesses_x)
    in
    if Graph.is_empty acc then
      (* No violating pair: either the positive shape holds, or one of the
         sets is empty (then the positive shape holds too). *)
      (false, Graph.empty)
    else (true, acc)
  in
  go

let check ?budget ?schema g v phi =
  make_instrumented ?budget ?schema g v (Shape.nnf phi)

let checker ?counters ?budget ?schema ?touched g phi =
  let go = make_instrumented ?counters ?budget ?schema ?touched g in
  let normalized = Shape.nnf phi in
  fun v -> go v normalized

let row_checker ?counters ?budget ?schema ?env g phi =
  match Graph.store g with
  | None ->
      invalid_arg "Neighborhood.row_checker: graph has no frozen store"
  | Some st ->
      let b = match budget with Some b -> b | None -> Runtime.Budget.unlimited in
      let schema_v = match schema with Some s -> s | None -> Schema.empty in
      let ctx = match env with Some c -> c | None -> row_env ~budget:b ?counters g in
      let go_id = make_row_core ?counters ~budget:b ~schema:schema_v st ctx in
      (* A focus node the dictionary has never seen (a stray request
         constant) cannot enter id space.  It occurs in no triple, so its
         neighborhood is empty: the term checker decides the verdict, with
         the same charges, and no rows are emitted. *)
      let term_check =
        lazy (checker ?counters ~budget:b ?schema g phi)
      in
      let normalized = Shape.nnf phi in
      fun v ->
        match Store.id st v with
        | Some vid ->
            let verdict, nb = go_id vid normalized in
            (verdict, Rows.to_array nb)
        | None -> (fst ((Lazy.force term_check) v), [||])

let naive_checker ?counters ?budget ?schema g phi =
  let conforms, go = make_naive ?counters ?budget ?schema g in
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
