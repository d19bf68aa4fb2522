open Rdf
open Algebra

type strategy = Indexed | Naive

(* ------------------------------------------------------------------ *)
(* Evaluation context                                                 *)
(* ------------------------------------------------------------------ *)

(* The evaluator passes an ambient binding down the algebra tree:
   constraints from already-evaluated join partners (and from EXISTS
   substitution) that seed pattern matching, so that path patterns and
   subqueries evaluate anchored instead of materializing full relations.
   Scope-opening operators (subqueries, MINUS right-hand sides) receive
   only the part of the ambient binding their exported variables can see.

   Every node's evaluation is memoized per (node, relevant ambient
   restriction): re-joining the same subpattern under the same anchor is
   a table lookup, and ambient-independent subqueries are evaluated once
   per query.  Physical identity keys the per-node tables (algebra terms
   are never rebuilt during evaluation). *)

module Phys_tbl = Hashtbl.Make (struct
  type t = Algebra.t

  let equal = ( == )
  let hash = Hashtbl.hash (* depth-limited structural hash; collisions ok *)
end)

type ctx = {
  strategy : strategy;
  g : Graph.t;
  budget : Runtime.Budget.t;
  path_fwd : (Rdf.Path.t * Term.t, Term.Set.t) Hashtbl.t;
  path_bwd : (Rdf.Path.t * Term.t, Term.Set.t) Hashtbl.t;
  path_rel : (Rdf.Path.t, (Term.t * Term.t) list) Hashtbl.t;
  node_vars : string list Phys_tbl.t;
  node_rows : ((string * Term.t) list, Binding.t list) Hashtbl.t Phys_tbl.t;
}

let make_ctx ?(budget = Runtime.Budget.unlimited) strategy g =
  {
    strategy;
    g;
    budget;
    path_fwd = Hashtbl.create 128;
    path_bwd = Hashtbl.create 128;
    path_rel = Hashtbl.create 16;
    node_vars = Phys_tbl.create 64;
    node_rows = Phys_tbl.create 64;
  }

let memo table key compute =
  match Hashtbl.find_opt table key with
  | Some cached -> cached
  | None ->
      let result = compute () in
      Hashtbl.add table key result;
      result

(* Path evaluation and (memoized) node evaluation are the evaluator's
   budget safe points, mirroring the conformance checker: the budget is
   spent where the work happens, and [Budget.Exhausted] unwinds with all
   memo tables consistent. *)
let path_eval ctx path a =
  Runtime.Budget.tick ctx.budget;
  memo ctx.path_fwd (path, a) (fun () ->
      Rdf.Path.eval ~step:(Runtime.Budget.step_hook ctx.budget) ctx.g path a)

let path_eval_inv ctx path b =
  Runtime.Budget.tick ctx.budget;
  memo ctx.path_bwd (path, b) (fun () ->
      Rdf.Path.eval_inv ~step:(Runtime.Budget.step_hook ctx.budget) ctx.g path
        b)

let path_holds ctx path a b = Term.Set.mem b (path_eval ctx path a)

let path_pairs ctx path =
  Runtime.Budget.tick ctx.budget;
  memo ctx.path_rel path (fun () -> Rdf.Path.pairs ctx.g path)

let vars_of ctx alg =
  match Phys_tbl.find_opt ctx.node_vars alg with
  | Some vs -> vs
  | None ->
      let vs = Algebra.vars alg in
      Phys_tbl.add ctx.node_vars alg vs;
      vs

(* ------------------------------------------------------------------ *)
(* Triple pattern matching                                            *)
(* ------------------------------------------------------------------ *)

let bind_term pattern term binding =
  match pattern with
  | Var v -> (
      match Binding.find v binding with
      | None -> Some (Binding.add v term binding)
      | Some t when Term.equal t term -> Some binding
      | Some _ -> None)
  | Const t -> if Term.equal t term then Some binding else None

let bind_pred pattern p binding =
  match pattern with
  | Pred q -> if Iri.equal p q then Some binding else None
  | Pvar v -> bind_term (Var v) (Term.Iri p) binding
  | Ppath _ -> assert false

(* Resolve a pattern position against the current binding. *)
let subst_term binding = function
  | Var v -> (
      match Binding.find v binding with
      | Some t -> Const t
      | None -> Var v)
  | Const _ as c -> c

let match_triple_naive ctx { tp_s; tp_p; tp_o } binding =
  match tp_p with
  | Ppath path -> (
      (* Path-pattern endpoints are not restricted to non-literals: with
         inverse steps a path may start (or end) at a literal. *)
      let s = subst_term binding tp_s and o = subst_term binding tp_o in
      match s, o with
      | Const cs, Const co ->
          if path_holds ctx path cs co then [ binding ] else []
      | Const cs, Var vo ->
          Term.Set.fold
            (fun t acc -> Binding.add vo t binding :: acc)
            (path_eval ctx path cs)
            []
      | Var vs, Const co ->
          Term.Set.fold
            (fun t acc -> Binding.add vs t binding :: acc)
            (path_eval_inv ctx path co)
            []
      | Var vs, Var vo ->
          List.filter_map
            (fun (a, b) ->
              Option.bind
                (bind_term (Var vs) a binding)
                (bind_term (Var vo) b))
            (path_pairs ctx path))
  | _ ->
      Graph.fold
        (fun t acc ->
          match bind_term tp_s (Triple.subject t) binding with
          | None -> acc
          | Some b1 -> (
              match bind_pred tp_p (Triple.predicate t) b1 with
              | None -> acc
              | Some b2 -> (
                  match bind_term tp_o (Triple.object_ t) b2 with
                  | None -> acc
                  | Some b3 -> b3 :: acc)))
        ctx.g []

let match_triple_indexed ctx ({ tp_s; tp_p; tp_o } as pat) binding =
  let g = ctx.g in
  let s = subst_term binding tp_s and o = subst_term binding tp_o in
  match tp_p with
  | Ppath _ -> match_triple_naive ctx pat binding
  | Pred p -> (
      match s, o with
      | Const cs, Const co ->
          if (not (Term.is_literal cs)) && Graph.mem_spo cs p co g then
            [ binding ]
          else []
      | Const cs, Var vo ->
          if Term.is_literal cs then []
          else
            Term.Set.fold
              (fun t acc -> Binding.add vo t binding :: acc)
              (Graph.objects g cs p) []
      | Var vs, Const co ->
          Term.Set.fold
            (fun t acc -> Binding.add vs t binding :: acc)
            (Graph.subjects g p co) []
      | Var vs, Var vo ->
          List.filter_map
            (fun t ->
              Option.bind
                (bind_term (Var vs) (Triple.subject t) binding)
                (bind_term (Var vo) (Triple.object_ t)))
            (Graph.predicate_triples g p))
  | Pvar pv -> (
      match s, o with
      | Const cs, _ when not (Term.is_literal cs) ->
          List.filter_map
            (fun t ->
              Option.bind
                (bind_pred (Pvar pv) (Triple.predicate t) binding)
                (bind_term tp_o (Triple.object_ t)))
            (Graph.subject_triples g cs)
      | Const _, _ -> []
      | _, Const co ->
          List.filter_map
            (fun t ->
              Option.bind
                (bind_term tp_s (Triple.subject t) binding)
                (bind_pred (Pvar pv) (Triple.predicate t)))
            (Graph.object_triples g co)
      | _, _ -> match_triple_naive ctx pat binding)

(* A rough selectivity estimate: patterns with more constants first. *)
let pattern_weight binding { tp_s; tp_p; tp_o } =
  let term_bound = function
    | Const _ -> 0
    | Var v -> if Binding.mem v binding then 0 else 1
  in
  let pred_bound = function
    | Pred _ -> 0
    | Ppath _ -> 2
    | Pvar v -> if Binding.mem v binding then 0 else 1
  in
  (term_bound tp_s * 4) + pred_bound tp_p + (term_bound tp_o * 2)

let eval_bgp ctx ~seed patterns =
  let match_one =
    match ctx.strategy with
    | Indexed -> match_triple_indexed
    | Naive -> match_triple_naive
  in
  let rec go patterns bindings =
    match patterns with
    | [] -> bindings
    | _ ->
        let repr = match bindings with b :: _ -> b | [] -> Binding.empty in
        let sorted =
          List.stable_sort
            (fun a b ->
              Int.compare (pattern_weight repr a) (pattern_weight repr b))
            patterns
        in
        (match sorted with
         | [] -> bindings
         | pat :: rest ->
             let bindings =
               List.concat_map (fun b -> match_one ctx pat b) bindings
             in
             if bindings = [] then [] else go rest bindings)
  in
  go patterns [ seed ]

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let truthy = function
  | Some (Term.Literal l) -> (
      match Literal.value l with
      | Literal.Bool b -> b
      | Literal.Num x -> x <> 0.0
      | Literal.Str s -> s <> ""
      | _ -> false)
  | Some (Term.Iri _ | Term.Blank _) -> false
  | None -> false

let term_bool b = Some (Term.bool b)

let compare_terms op a b =
  match a, b with
  | Term.Literal la, Term.Literal lb -> (
      match Literal.order la lb with
      | Literal.Incomparable -> None
      | o ->
          term_bool
            (match op, o with
            | (`Lt | `Le), Literal.Less | (`Gt | `Ge), Literal.Greater
            | (`Le | `Ge), Literal.Equal ->
                true
            | _ -> false))
  | _ -> None

let equal_terms a b =
  match a, b with
  | Term.Literal la, Term.Literal lb -> (
      match Literal.order la lb with
      | Literal.Incomparable -> Some (Literal.equal la lb)
      | o -> Some (o = Literal.Equal))
  | a, b -> Some (Term.equal a b)

let rec eval_expr_st ctx binding expr : Term.t option =
  let recur = eval_expr_st ctx binding in
  match expr with
  | E_var v -> Binding.find v binding
  | E_term t -> Some t
  | E_eq (a, b) -> (
      match recur a, recur b with
      | Some ta, Some tb -> Option.map Term.bool (equal_terms ta tb)
      | _ -> None)
  | E_neq (a, b) -> (
      match recur a, recur b with
      | Some ta, Some tb ->
          Option.map (fun e -> Term.bool (not e)) (equal_terms ta tb)
      | _ -> None)
  | E_lt (a, b) -> binop `Lt ctx binding a b
  | E_le (a, b) -> binop `Le ctx binding a b
  | E_gt (a, b) -> binop `Gt ctx binding a b
  | E_ge (a, b) -> binop `Ge ctx binding a b
  | E_and (a, b) -> term_bool (truthy (recur a) && truthy (recur b))
  | E_or (a, b) -> term_bool (truthy (recur a) || truthy (recur b))
  | E_not a -> term_bool (not (truthy (recur a)))
  | E_bound v -> term_bool (Binding.mem v binding)
  | E_is_iri a -> Option.map (fun t -> Term.bool (Term.is_iri t)) (recur a)
  | E_is_literal a ->
      Option.map (fun t -> Term.bool (Term.is_literal t)) (recur a)
  | E_is_blank a -> Option.map (fun t -> Term.bool (Term.is_blank t)) (recur a)
  | E_lang a -> (
      match recur a with
      | Some (Term.Literal l) ->
          Some (Term.str (Option.value (Literal.lang l) ~default:""))
      | _ -> None)
  | E_lang_matches (a, b) -> (
      match recur a, recur b with
      | Some (Term.Literal tag), Some (Term.Literal range) ->
          let tag = Literal.lexical tag and range = Literal.lexical range in
          if tag = "" then term_bool false
          else
            term_bool
              (Literal.language_matches
                 (Literal.lang_string "x" ~lang:tag)
                 ~range)
      | _ -> None)
  | E_datatype a -> (
      match recur a with
      | Some (Term.Literal l) -> Some (Term.Iri (Literal.datatype l))
      | _ -> None)
  | E_str_len a -> (
      match recur a with
      | Some (Term.Literal l) ->
          Some (Term.int (String.length (Literal.lexical l)))
      | Some (Term.Iri i) -> Some (Term.int (String.length (Iri.to_string i)))
      | _ -> None)
  | E_regex (a, re, _) -> (
      (* Exact regex support lives in Shacl.Node_test (exposed as E_fun);
         the plain REGEX builtin approximates with substring search. *)
      match recur a with
      | None -> None
      | Some t -> (
          let s =
            match t with
            | Term.Literal l -> Some (Literal.lexical l)
            | Term.Iri i -> Some (Iri.to_string i)
            | Term.Blank _ -> None
          in
          match s with
          | None -> None
          | Some s ->
              let plain =
                String.concat ""
                  (String.split_on_char '^' re
                  |> List.concat_map (String.split_on_char '$'))
              in
              let contains hay needle =
                let nl = String.length needle and hl = String.length hay in
                nl = 0
                || (let found = ref false in
                    for i = 0 to hl - nl do
                      if (not !found) && String.sub hay i nl = needle then
                        found := true
                    done;
                    !found)
              in
              term_bool (contains s plain)))
  | E_in (a, ts) -> (
      match recur a with
      | Some t -> term_bool (List.exists (Term.equal t) ts)
      | None -> None)
  | E_exists alg ->
      (* ambient substitution: the current binding seeds the pattern *)
      term_bool (eval_alg ctx binding alg <> [])
  | E_not_exists alg -> term_bool (eval_alg ctx binding alg = [])
  | E_fun { f; arg; _ } -> (
      match recur arg with Some t -> term_bool (f t) | None -> None)

and binop op ctx binding a b =
  match eval_expr_st ctx binding a, eval_expr_st ctx binding b with
  | Some ta, Some tb -> compare_terms op ta tb
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Algebra                                                            *)
(* ------------------------------------------------------------------ *)

(* Memoized entry point: restrict the ambient binding to the variables
   the node can see, then look up or compute. *)
and eval_alg ctx amb alg : Binding.t list =
  match alg with
  | Unit -> [ Binding.empty ]
  | Values rows -> rows
  | _ ->
      Runtime.Budget.tick ctx.budget;
      let relevant = Binding.restrict (vars_of ctx alg) amb in
      let table =
        match Phys_tbl.find_opt ctx.node_rows alg with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 8 in
            Phys_tbl.add ctx.node_rows alg t;
            t
      in
      memo table (Binding.to_list relevant) (fun () ->
          eval_raw ctx relevant alg)

and eval_raw ctx amb alg : Binding.t list =
  match alg with
  | Unit -> [ Binding.empty ]
  | Values rows -> rows
  | BGP patterns ->
      (* seed matching with the ambient values of the pattern variables;
         the seeded variables belong to the pattern's scope, so keeping
         them in the result rows is sound *)
      let pattern_vars =
        List.concat_map
          (fun { tp_s; tp_p; tp_o } ->
            let tv = function Var v -> [ v ] | Const _ -> [] in
            let pv = function Pvar v -> [ v ] | _ -> [] in
            tv tp_s @ pv tp_p @ tv tp_o)
          patterns
      in
      let seed = Binding.restrict pattern_vars amb in
      eval_bgp ctx ~seed patterns
  | Join (a, b) ->
      let rows_a = eval_alg ctx amb a in
      if rows_a = [] then []
      else
        List.concat_map
          (fun ra ->
            match Binding.merge ra amb with
            | None -> []
            | Some amb_b ->
                List.filter_map
                  (fun rb -> Binding.merge ra rb)
                  (eval_alg ctx amb_b b))
          rows_a
  | Left_join (a, b, cond) ->
      let rows_a = eval_alg ctx amb a in
      List.concat_map
        (fun ra ->
          match Binding.merge ra amb with
          | None -> [ ra ]
          | Some amb_b ->
              let joined =
                List.filter_map
                  (fun rb ->
                    match Binding.merge ra rb with
                    | Some merged
                      when truthy (eval_expr_st ctx merged cond) ->
                        Some merged
                    | _ -> None)
                  (eval_alg ctx amb_b b)
              in
              if joined = [] then [ ra ] else joined)
        rows_a
  | Union (a, b) -> eval_alg ctx amb a @ eval_alg ctx amb b
  | Minus (a, b) ->
      let rows_a = eval_alg ctx amb a in
      if rows_a = [] then []
      else
        (* the right side of MINUS ignores outer context (bottom-up) *)
        let rows_b = eval_alg ctx Binding.empty b in
        List.filter
          (fun ra ->
            not
              (List.exists
                 (fun rb ->
                   let shared =
                     List.exists
                       (fun v -> Binding.mem v ra)
                       (Binding.domain rb)
                   in
                   shared && Binding.compatible ra rb)
                 rows_b))
          rows_a
  | Filter (cond, a) ->
      List.filter_map
        (fun row ->
          match Binding.merge row amb with
          | Some full when truthy (eval_expr_st ctx full cond) -> Some row
          | _ -> None)
        (eval_alg ctx amb a)
  | Extend (v, e, a) ->
      List.map
        (fun row ->
          let full = Option.value (Binding.merge row amb) ~default:row in
          match eval_expr_st ctx full e with
          | Some t -> Binding.add v t row
          | None -> row)
        (eval_alg ctx amb a)
  | Project (vs, a) ->
      (* subquery scope: only exported variables see the ambient *)
      let amb' = Binding.restrict vs amb in
      List.map (Binding.restrict vs) (eval_alg ctx amb' a)
  | Distinct a ->
      let seen = Hashtbl.create 64 in
      List.filter
        (fun b ->
          let key = Binding.to_list b in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.add seen key ();
            true
          end)
        (eval_alg ctx amb a)
  | Group { keys; aggs; sub } ->
      (* grouping is a subquery; ambient values of the keys select groups *)
      let amb' = Binding.restrict keys amb in
      let solutions = eval_alg ctx amb' sub in
      let groups = Hashtbl.create 64 in
      List.iter
        (fun b ->
          let key_binding = Binding.restrict keys b in
          let key = Binding.to_list key_binding in
          let existing =
            match Hashtbl.find_opt groups key with
            | Some (kb, members) -> (kb, b :: members)
            | None -> (key_binding, [ b ])
          in
          Hashtbl.replace groups key existing)
        solutions;
      Hashtbl.fold
        (fun _ (key_binding, members) acc ->
          let with_aggs =
            List.fold_left
              (fun kb (avar, agg) ->
                let value =
                  match agg with
                  | Count_star -> List.length members
                  | Count_distinct x ->
                      let distinct =
                        List.sort_uniq (Option.compare Term.compare)
                          (List.map (Binding.find x) members)
                      in
                      List.length (List.filter (fun o -> o <> None) distinct)
                in
                Binding.add avar (Term.int value) kb)
              key_binding aggs
          in
          with_aggs :: acc)
        groups []

let eval ?(strategy = Indexed) ?budget g alg =
  eval_alg (make_ctx ?budget strategy g) Binding.empty alg

let eval_expr ?(strategy = Indexed) ?budget g binding expr =
  eval_expr_st (make_ctx ?budget strategy g) binding expr

let select ?(strategy = Indexed) ?budget g ~vars alg =
  eval ~strategy ?budget g (Project (vars, alg))

let construct ?(strategy = Indexed) ?budget g ~template alg =
  let solutions = eval ~strategy ?budget g alg in
  List.fold_left
    (fun acc binding ->
      List.fold_left
        (fun acc { tp_s; tp_p; tp_o } ->
          let resolve = function
            | Const t -> Some t
            | Var v -> Binding.find v binding
          in
          let resolve_p = function
            | Pred p -> Some p
            | Pvar v -> (
                match Binding.find v binding with
                | Some (Term.Iri i) -> Some i
                | _ -> None)
            | Ppath _ -> None
          in
          match resolve tp_s, resolve_p tp_p, resolve tp_o with
          | Some s, Some p, Some o when not (Term.is_literal s) ->
              Graph.add s p o acc
          | _ -> acc)
        acc template)
    Graph.empty solutions
