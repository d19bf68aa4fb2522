open Rdf

type env = {
  schema : Schema.t;
  g : Graph.t;
  memo : (Term.t * Shape.t, bool) Hashtbl.t option;
  counters : Counters.t option;
  budget : Runtime.Budget.t;
}

(* [[E]](a), counting the evaluation when instrumented.  Path evaluation
   and memo lookups are the budget's safe points: [Budget.tick] may
   raise [Budget.Exhausted] here, unwinding to the budget's installer
   with the memo table still consistent (entries are only added for
   completed subcomputations). *)
let eval env e a =
  Runtime.Budget.tick env.budget;
  (match env.counters with
  | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
  | None -> ());
  let lookup =
    match env.counters with
    | None -> ignore
    | Some c ->
        fun () -> c.Counters.store_lookups <- c.Counters.store_lookups + 1
  in
  Rdf.Path.eval ~step:(Runtime.Budget.step_hook env.budget) ~lookup env.g e a

let rec conforms_env env a phi =
  match env.memo, phi with
  | None, _
  | ( _,
      ( Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
      | Shape.Not (Shape.Test _ | Shape.Has_value _ | Shape.Top | Shape.Bottom)
        ) ) ->
      compute env a phi
  | Some table, _ -> (
      let key = a, phi in
      Runtime.Budget.tick env.budget;
      (match env.counters with
      | Some c -> c.Counters.memo_lookups <- c.Counters.memo_lookups + 1
      | None -> ());
      match Hashtbl.find_opt table key with
      | Some cached ->
          (match env.counters with
          | Some c -> c.Counters.memo_hits <- c.Counters.memo_hits + 1
          | None -> ());
          cached
      | None ->
          (match env.counters with
          | Some c -> c.Counters.memo_misses <- c.Counters.memo_misses + 1
          | None -> ());
          let result = compute env a phi in
          Hashtbl.add table key result;
          result)

and compute env a phi =
  let g = env.g in
  match phi with
  | Shape.Top -> true
  | Shape.Bottom -> false
  | Shape.Has_value c -> Term.equal a c
  | Shape.Test t -> Node_test.satisfies t a
  | Shape.Has_shape s -> conforms_env env a (Schema.def_shape env.schema s)
  | Shape.Not phi -> not (conforms_env env a phi)
  | Shape.And l -> List.for_all (fun phi -> conforms_env env a phi) l
  | Shape.Or l -> List.exists (fun phi -> conforms_env env a phi) l
  | Shape.Ge (n, e, psi) ->
      n = 0
      ||
      (* Early exit once n conforming successors are found. *)
      let found = ref 0 in
      (try
         Term.Set.iter
           (fun b ->
             if conforms_env env b psi then begin
               incr found;
               if !found >= n then raise Exit
             end)
           (eval env e a);
         false
       with Exit -> true)
  | Shape.Le (n, e, psi) ->
      (* [n < 0] (the normal form of [¬≥0]) admits no node, even one
         without successors *)
      n >= 0
      &&
      let found = ref 0 in
      (try
         Term.Set.iter
           (fun b ->
             if conforms_env env b psi then begin
               incr found;
               if !found > n then raise Exit
             end)
           (eval env e a);
         true
       with Exit -> false)
  | Shape.Forall (e, psi) ->
      Term.Set.for_all (fun b -> conforms_env env b psi) (eval env e a)
  | Shape.Eq (Shape.Id, p) ->
      Term.Set.equal (Graph.objects g a p) (Term.Set.singleton a)
  | Shape.Eq (Shape.Path e, p) ->
      Term.Set.equal (eval env e a) (Graph.objects g a p)
  | Shape.Disj (Shape.Id, p) -> not (Term.Set.mem a (Graph.objects g a p))
  | Shape.Disj (Shape.Path e, p) ->
      Term.Set.disjoint (eval env e a) (Graph.objects g a p)
  | Shape.Closed allowed -> Iri.Set.subset (Graph.out_predicates g a) allowed
  | Shape.Less_than (e, p) ->
      compare_all env a e p ~holds:(fun b c ->
          match Term.as_literal b, Term.as_literal c with
          | Some lb, Some lc -> Literal.lt lb lc
          | _ -> false)
  | Shape.Less_than_eq (e, p) ->
      compare_all env a e p ~holds:(fun b c ->
          match Term.as_literal b, Term.as_literal c with
          | Some lb, Some lc -> Literal.leq lb lc
          | _ -> false)
  | Shape.More_than (e, p) ->
      compare_all env a e p ~holds:(fun b c ->
          match Term.as_literal b, Term.as_literal c with
          | Some lb, Some lc -> Literal.lt lc lb
          | _ -> false)
  | Shape.More_than_eq (e, p) ->
      compare_all env a e p ~holds:(fun b c ->
          match Term.as_literal b, Term.as_literal c with
          | Some lb, Some lc -> Literal.leq lc lb
          | _ -> false)
  | Shape.Unique_lang e ->
      let values = Term.Set.elements (eval env e a) in
      let rec pairwise = function
        | [] -> true
        | b :: rest ->
            List.for_all
              (fun c ->
                match Term.as_literal b, Term.as_literal c with
                | Some lb, Some lc -> not (Literal.same_language lb lc)
                | _ -> true)
              rest
            && pairwise rest
      in
      pairwise values

(* b R c must hold for all b in [[E]](a) and c in [[p]](a). *)
and compare_all env a e p ~holds =
  let values = eval env e a in
  let objects = Graph.objects env.g a p in
  Term.Set.for_all
    (fun b -> Term.Set.for_all (fun c -> holds b c) objects)
    values

let conforms ?(budget = Runtime.Budget.unlimited) h g a phi =
  conforms_env { schema = h; g; memo = None; counters = None; budget } a phi

let memoized ?counters ?(budget = Runtime.Budget.unlimited) h g =
  let env =
    { schema = h; g; memo = Some (Hashtbl.create 256); counters; budget }
  in
  fun a phi -> conforms_env env a phi

let checker ?counters ?budget h g phi =
  let check = memoized ?counters ?budget h g in
  fun a -> check a phi

let conforming_nodes ?budget h g phi =
  let candidates = Term.Set.union (Graph.nodes g) (Shape.constants phi) in
  let check = checker ?budget h g phi in
  Term.Set.filter check candidates
