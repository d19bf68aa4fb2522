open Rdf
open Shacl
open Sparql.Algebra

type path_columns = {
  alg : Sparql.Algebra.t;
  t : string;
  s : string;
  p : string;
  o : string;
  h : string;
}

(* Fresh-variable supply.  Generated names contain '!' so they can never
   clash with user-facing variable names. *)
let counter = ref 0

let fresh prefix =
  incr counter;
  Printf.sprintf "%s!%d" prefix !counter

(* Rename columns of [alg].  All generated variable names are globally
   fresh, so a capture-free alpha-renaming suffices and keeps the pattern
   transparent to the evaluator's bind-join anchoring (a Project wrapper
   would hide it).  When two requested columns share a source variable
   (e.g. Q_p has t = s), the second is aliased with an Extend. *)
let project_rename alg renames =
  (* The first request for a source variable wins the alpha-rename (an
     identity request counts); later requests for the same source become
     Extend aliases of the winner. *)
  let mapping, aliases =
    List.fold_left
      (fun (mapping, aliases) (old_name, new_name) ->
        match List.assoc_opt old_name mapping with
        | Some target ->
            if String.equal new_name target then mapping, aliases
            else mapping, (new_name, target) :: aliases
        | None -> (old_name, new_name) :: mapping, aliases)
      ([], []) renames
  in
  let proper = List.filter (fun (o, n) -> not (String.equal o n)) mapping in
  let renamed = Sparql.Algebra.rename proper alg in
  List.fold_left
    (fun acc (alias, source) -> Extend (alias, E_var source, acc))
    renamed aliases

(* ------------------------------------------------------------------ *)
(* Lemma 5.1: Q_E                                                     *)
(* ------------------------------------------------------------------ *)

let canon_path_branches branches =
  (* Give all branches the same five column names, then union. *)
  let t = fresh "t" and s = fresh "s" and p = fresh "p" and o = fresh "o"
  and h = fresh "h" in
  let rename q =
    project_rename q.alg
      [ q.t, t; q.s, s; q.p, p; q.o, o; q.h, h ]
  in
  { alg = union_all (List.map rename branches); t; s; p; o; h }

(* The identity relation on N(G): ?v bound to every node, s/p/o unbound. *)
let identity_pathq () =
  let n = fresh "id" in
  {
    alg = node_pattern n;
    t = n;
    s = fresh "s";
    p = fresh "p";
    o = fresh "o";
    h = n;
  }

let rec path_query e : path_columns =
  match e with
  | Rdf.Path.Prop prop ->
      let s = fresh "s" and o = fresh "o" and p = fresh "p" in
      let alg =
        Extend (p, E_term (Term.Iri prop), bgp1 (Var s) (Pred prop) (Var o))
      in
      { alg; t = s; s; p; o; h = o }
  | Rdf.Path.Inv e1 ->
      let q = path_query e1 in
      { q with t = q.h; h = q.t }
  | Rdf.Path.Alt (e1, e2) ->
      canon_path_branches [ path_query e1; path_query e2 ]
  | Rdf.Path.Opt e1 -> canon_path_branches [ path_query e1; identity_pathq () ]
  | Rdf.Path.Seq (e1, e2) ->
      (* Branch 1: a triple of the E1 leg, with ?h reached onward via E2.
         Branch 2: ?t reaches the E2 leg via E1, triple from E2. *)
      let q1 = path_query e1 in
      let h1 = fresh "h" in
      let b1 =
        { q1 with
          alg = Join (q1.alg, bgp1 (Var q1.h) (Ppath e2) (Var h1));
          h = h1;
        }
      in
      let q2 = path_query e2 in
      let t2 = fresh "t" in
      let b2 =
        { q2 with
          alg = Join (bgp1 (Var t2) (Ppath e1) (Var q2.t), q2.alg);
          t = t2;
        }
      in
      canon_path_branches [ b1; b2 ]
  | Rdf.Path.Star e1 ->
      (* A triple lies on an E*-path from ?t to ?h iff it lies on a single
         E-step reachable from ?t and reaching ?h through E*. *)
      let q1 = path_query e1 in
      let t0 = fresh "t" and h0 = fresh "h" in
      let stepped =
        { q1 with
          alg =
            Join
              ( bgp1 (Var t0) (Ppath (Rdf.Path.Star e1)) (Var q1.t),
                Join
                  ( q1.alg,
                    bgp1 (Var q1.h) (Ppath (Rdf.Path.Star e1)) (Var h0) ) );
          t = t0;
          h = h0;
        }
      in
      canon_path_branches [ stepped; identity_pathq () ]

(* ------------------------------------------------------------------ *)
(* Conformance queries CQ_phi                                         *)
(* ------------------------------------------------------------------ *)

let term_lt_expr x y = E_lt (E_var x, E_var y)
let term_leq_expr x y = E_le (E_var x, E_var y)

let node_test_expr test arg =
  E_fun
    {
      name = Format.asprintf "%a" Node_test.pp test;
      f = Node_test.satisfies test;
      arg;
    }

let rec cq ?(schema = Schema.empty) shape ~var =
  let recur shape ~var = cq ~schema shape ~var in
  let filter_nodes cond = Filter (cond, node_pattern var) in
  match shape with
  | Shape.Top -> node_pattern var
  | Shape.Bottom -> Values []
  | Shape.Has_value c -> filter_nodes (E_eq (E_var var, E_term c))
  | Shape.Test test -> filter_nodes (node_test_expr test (E_var var))
  | Shape.Has_shape s -> recur (Schema.def_shape schema s) ~var
  | Shape.Not psi ->
      Minus (node_pattern var, Project ([ var ], recur psi ~var))
  | Shape.And l ->
      join_all (node_pattern var :: List.map (fun psi -> recur psi ~var) l)
  | Shape.Or l ->
      Distinct
        (Project
           ([ var ], union_all (List.map (fun psi -> recur psi ~var) l)))
  | Shape.Ge (0, _, _) -> node_pattern var
  | Shape.Ge (n, e, psi) -> ge_query ~schema ~var n e psi
  | Shape.Le (n, _, _) when n < 0 -> Values [] (* the normal form of ¬≥0 *)
  | Shape.Le (n, e, psi) ->
      Minus
        (node_pattern var, Project ([ var ], ge_query ~schema ~var (n + 1) e psi))
  | Shape.Forall (e, psi) ->
      let x = fresh "x" in
      let non_conforming =
        Minus (node_pattern x, Project ([ x ], recur psi ~var:x))
      in
      Minus
        ( node_pattern var,
          Project
            ([ var ], Join (bgp1 (Var var) (Ppath e) (Var x), non_conforming))
        )
  | Shape.Eq (Shape.Path e, p) ->
      let x = fresh "x" in
      filter_nodes
        (E_and
           ( E_not_exists
               (Minus
                  ( bgp1 (Var var) (Ppath e) (Var x),
                    bgp1 (Var var) (Pred p) (Var x) )),
             E_not_exists
               (Minus
                  ( bgp1 (Var var) (Pred p) (Var x),
                    bgp1 (Var var) (Ppath e) (Var x) )) ))
  | Shape.Eq (Shape.Id, p) ->
      let x = fresh "x" in
      filter_nodes
        (E_and
           ( E_exists (bgp1 (Var var) (Pred p) (Var var)),
             E_not_exists
               (Filter
                  ( E_neq (E_var x, E_var var),
                    bgp1 (Var var) (Pred p) (Var x) )) ))
  | Shape.Disj (Shape.Path e, p) ->
      let x = fresh "x" in
      filter_nodes
        (E_not_exists
           (Join
              ( bgp1 (Var var) (Ppath e) (Var x),
                bgp1 (Var var) (Pred p) (Var x) )))
  | Shape.Disj (Shape.Id, p) ->
      filter_nodes (E_not_exists (bgp1 (Var var) (Pred p) (Var var)))
  | Shape.Closed allowed ->
      let pv = fresh "p" and ov = fresh "o" in
      filter_nodes
        (E_not_exists
           (Filter
              ( E_not
                  (E_in
                     ( E_var pv,
                       List.map (fun i -> Term.Iri i)
                         (Iri.Set.elements allowed) )),
                bgp1 (Var var) (Pvar pv) (Var ov) )))
  | Shape.Less_than (e, p) ->
      comparison_cq ~var e p ~ok:(fun x y -> term_lt_expr x y)
  | Shape.Less_than_eq (e, p) ->
      comparison_cq ~var e p ~ok:(fun x y -> term_leq_expr x y)
  | Shape.More_than (e, p) ->
      comparison_cq ~var e p ~ok:(fun x y -> term_lt_expr y x)
  | Shape.More_than_eq (e, p) ->
      comparison_cq ~var e p ~ok:(fun x y -> term_leq_expr y x)
  | Shape.Unique_lang e ->
      let x = fresh "x" and y = fresh "y" in
      filter_nodes
        (E_not_exists
           (Filter
              ( E_and
                  ( E_neq (E_var x, E_var y),
                    E_and
                      ( E_eq (E_lang (E_var x), E_lang (E_var y)),
                        E_neq (E_lang (E_var x), E_term (Term.str "")) ) ),
                Join
                  ( bgp1 (Var var) (Ppath e) (Var x),
                    bgp1 (Var var) (Ppath e) (Var y) ) )))

(* Nodes with >= n E-successors conforming to psi, via COUNT DISTINCT. *)
and ge_query ~schema ~var n e psi =
  let x = fresh "x" and cnt = fresh "cnt" in
  Project
    ( [ var ],
      Filter
        ( E_ge (E_var cnt, E_term (Term.int n)),
          Group
            {
              keys = [ var ];
              aggs = [ cnt, Count_distinct x ];
              sub =
                Join
                  ( bgp1 (Var var) (Ppath e) (Var x),
                    Project ([ x ], cq ~schema psi ~var:x) );
            } ) )

(* All (E, p) pairs must satisfy [ok]; a failing or incomparable pair is
   a violation (an error in the comparison makes the filter true). *)
and comparison_cq ~var e p ~ok =
  let x = fresh "x" and y = fresh "y" in
  Filter
    ( E_not_exists
        (Filter
           ( E_not (ok x y),
             Join
               ( bgp1 (Var var) (Ppath e) (Var x),
                 bgp1 (Var var) (Pred p) (Var y) ) )),
      node_pattern var )

let conformance_query ?schema shape ~var =
  Sparql.Optimizer.simplify (cq ?schema shape ~var)

(* ------------------------------------------------------------------ *)
(* Proposition 5.3: Q_phi                                             *)
(* ------------------------------------------------------------------ *)

type ncols = { nalg : Sparql.Algebra.t; nv : string; ns : string; np : string; no_ : string }

let empty_ncols () =
  { nalg = Values []; nv = fresh "v"; ns = fresh "s"; np = fresh "p"; no_ = fresh "o" }

let canon_n branches =
  let v = fresh "v" and s = fresh "s" and p = fresh "p" and o = fresh "o" in
  let rename q =
    project_rename q.nalg [ q.nv, v; q.ns, s; q.np, p; q.no_, o ]
  in
  { nalg = union_all (List.map rename branches); nv = v; ns = s; np = p; no_ = o }

(* Rows (v, p, v): the self-loop triple used by eq(id,p) and ¬disj(id,p). *)
let self_loop_rows v p =
  let s = fresh "s" and pv = fresh "p" and o = fresh "o" in
  let alg =
    Extend
      ( s,
        E_var v,
        Extend
          ( pv,
            E_term (Term.Iri p),
            Extend (o, E_var v, bgp1 (Var v) (Pred p) (Var v)) ) )
  in
  { nalg = alg; nv = v; ns = s; np = pv; no_ = o }

let rec nq ~schema shape : ncols =
  (* Assumes NNF. *)
  let conf v = Project ([ v ], cq ~schema shape ~var:v) in
  match shape with
  | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
  | Shape.Closed _ | Shape.Disj _ | Shape.Less_than _ | Shape.Less_than_eq _
  | Shape.More_than _ | Shape.More_than_eq _ | Shape.Unique_lang _ ->
      empty_ncols ()
  | Shape.Has_shape s ->
      nq ~schema (Shape.nnf (Schema.def_shape schema s))
  | Shape.And l | Shape.Or l ->
      let v = fresh "v" in
      let sub = canon_n (List.map (nq ~schema) l) in
      let joined =
        Join (conf v, project_rename sub.nalg
                        [ sub.nv, v; sub.ns, sub.ns; sub.np, sub.np; sub.no_, sub.no_ ])
      in
      { nalg = joined; nv = v; ns = sub.ns; np = sub.np; no_ = sub.no_ }
  | Shape.Eq (Shape.Id, p) ->
      let v = fresh "v" in
      let rows = self_loop_rows v p in
      { rows with nalg = Join (conf v, rows.nalg) }
  | Shape.Eq (Shape.Path e, p) ->
      let v = fresh "v" in
      let q = path_query (Rdf.Path.Alt (e, Rdf.Path.Prop p)) in
      let renamed = project_rename q.alg [ q.t, v; q.s, q.s; q.p, q.p; q.o, q.o ] in
      { nalg = Join (conf v, renamed); nv = v; ns = q.s; np = q.p; no_ = q.o }
  | Shape.Ge (_, e, psi) -> quantifier_nq ~schema shape e psi
  | Shape.Le (_, e, psi) ->
      quantifier_nq ~schema shape e (Shape.nnf (Shape.Not psi))
  | Shape.Forall (e, psi) -> forall_nq ~schema shape e psi
  | Shape.Not inner -> negated_nq ~schema shape inner

(* Branch 1: E-path triples from v to x conforming to psi.
   Branch 2: the psi-neighborhoods of those x. *)
and quantifier_nq ~schema whole e psi =
  let conf v = Project ([ v ], cq ~schema whole ~var:v) in
  let b1 =
    let v = fresh "v" in
    let q = path_query e in
    let x = fresh "x" in
    let renamed = project_rename q.alg [ q.t, v; q.h, x; q.s, q.s; q.p, q.p; q.o, q.o ] in
    (* the conforming-successor side comes first so the (potentially huge)
       Q_E relation is evaluated anchored at both endpoints *)
    {
      nalg =
        Join (conf v, Join (Project ([ x ], cq ~schema psi ~var:x), renamed));
      nv = v;
      ns = q.s;
      np = q.p;
      no_ = q.o;
    }
  in
  let b2 =
    let v = fresh "v" in
    let sub = nq ~schema psi in
    {
      nalg =
        Join
          ( conf v,
            Join (bgp1 (Var v) (Ppath e) (Var sub.nv), sub.nalg) );
      nv = v;
      ns = sub.ns;
      np = sub.np;
      no_ = sub.no_;
    }
  in
  canon_n [ b1; b2 ]

and forall_nq ~schema whole e psi =
  let conf v = Project ([ v ], cq ~schema whole ~var:v) in
  let b1 =
    let v = fresh "v" in
    let q = path_query e in
    let renamed = project_rename q.alg [ q.t, v; q.s, q.s; q.p, q.p; q.o, q.o ] in
    { nalg = Join (conf v, renamed); nv = v; ns = q.s; np = q.p; no_ = q.o }
  in
  let b2 =
    let v = fresh "v" in
    let sub = nq ~schema psi in
    {
      nalg =
        Join (conf v, Join (bgp1 (Var v) (Ppath e) (Var sub.nv), sub.nalg));
      nv = v;
      ns = sub.ns;
      np = sub.np;
      no_ = sub.no_;
    }
  in
  canon_n [ b1; b2 ]

and negated_nq ~schema whole inner =
  let conf v = Project ([ v ], cq ~schema whole ~var:v) in
  match inner with
  | Shape.Has_shape s ->
      nq ~schema (Shape.nnf (Shape.Not (Schema.def_shape schema s)))
  | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _ ->
      empty_ncols ()
  | Shape.Closed allowed ->
      let v = fresh "v" and pv = fresh "p" and ov = fresh "o" and sv = fresh "s" in
      let triples =
        Extend
          ( sv,
            E_var v,
            Filter
              ( E_not
                  (E_in
                     ( E_var pv,
                       List.map (fun i -> Term.Iri i)
                         (Iri.Set.elements allowed) )),
                bgp1 (Var v) (Pvar pv) (Var ov) ) )
      in
      { nalg = Join (conf v, triples); nv = v; ns = sv; np = pv; no_ = ov }
  | Shape.Eq (Shape.Id, p) ->
      let v = fresh "v" and ov = fresh "o" and sv = fresh "s" and pv = fresh "p" in
      let triples =
        Extend
          ( sv,
            E_var v,
            Extend
              ( pv,
                E_term (Term.Iri p),
                Filter
                  ( E_neq (E_var ov, E_var v),
                    bgp1 (Var v) (Pred p) (Var ov) ) ) )
      in
      { nalg = Join (conf v, triples); nv = v; ns = sv; np = pv; no_ = ov }
  | Shape.Eq (Shape.Path e, p) ->
      let b1 =
        (* E-paths to nodes that are not p-successors *)
        let v = fresh "v" in
        let q = path_query e in
        let renamed =
          project_rename q.alg
            [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
        in
        {
          nalg =
            Join
              (conf v, Minus (renamed, bgp1 (Var v) (Pred p) (Var q.h)));
          nv = v;
          ns = q.s;
          np = q.p;
          no_ = q.o;
        }
      in
      let b2 =
        (* p-triples to nodes not reachable via E *)
        let v = fresh "v" in
        let q = path_query (Rdf.Path.Prop p) in
        let renamed =
          project_rename q.alg
            [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
        in
        {
          nalg =
            Join
              (conf v, Minus (renamed, bgp1 (Var v) (Ppath e) (Var q.h)));
          nv = v;
          ns = q.s;
          np = q.p;
          no_ = q.o;
        }
      in
      canon_n [ b1; b2 ]
  | Shape.Disj (Shape.Id, p) ->
      let v = fresh "v" in
      let rows = self_loop_rows v p in
      { rows with nalg = Join (conf v, rows.nalg) }
  | Shape.Disj (Shape.Path e, p) ->
      let b1 =
        let v = fresh "v" in
        let q = path_query e in
        let renamed =
          project_rename q.alg
            [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
        in
        {
          nalg =
            Join (conf v, Join (renamed, bgp1 (Var v) (Pred p) (Var q.h)));
          nv = v;
          ns = q.s;
          np = q.p;
          no_ = q.o;
        }
      in
      let b2 =
        let v = fresh "v" in
        let q = path_query (Rdf.Path.Prop p) in
        let renamed =
          project_rename q.alg
            [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
        in
        {
          nalg =
            Join (conf v, Join (renamed, bgp1 (Var v) (Ppath e) (Var q.h)));
          nv = v;
          ns = q.s;
          np = q.p;
          no_ = q.o;
        }
      in
      canon_n [ b1; b2 ]
  | Shape.Less_than (e, p) ->
      negated_comparison_nq ~schema ~conf e p ~violated:(fun x y ->
          E_not (term_lt_expr x y))
  | Shape.Less_than_eq (e, p) ->
      negated_comparison_nq ~schema ~conf e p ~violated:(fun x y ->
          E_not (term_leq_expr x y))
  | Shape.More_than (e, p) ->
      negated_comparison_nq ~schema ~conf e p ~violated:(fun x y ->
          E_not (term_lt_expr y x))
  | Shape.More_than_eq (e, p) ->
      negated_comparison_nq ~schema ~conf e p ~violated:(fun x y ->
          E_not (term_leq_expr y x))
  | Shape.Unique_lang e ->
      let v = fresh "v" in
      let q = path_query e in
      let renamed =
        project_rename q.alg
          [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
      in
      let y = fresh "y" in
      let clash =
        Filter
          ( E_and
              ( E_neq (E_var q.h, E_var y),
                E_and
                  ( E_eq (E_lang (E_var q.h), E_lang (E_var y)),
                    E_neq (E_lang (E_var q.h), E_term (Term.str "")) ) ),
            Join (renamed, bgp1 (Var v) (Ppath e) (Var y)) )
      in
      { nalg = Join (conf v, clash); nv = v; ns = q.s; np = q.p; no_ = q.o }
  | Shape.Not _ | Shape.And _ | Shape.Or _ | Shape.Ge _ | Shape.Le _
  | Shape.Forall _ ->
      assert false

(* Branch 1: the E-path triples to a witness x with a violating (v,p,y);
   branch 2: the violating (v,p,y) triples themselves. *)
and negated_comparison_nq ~schema ~conf e p ~violated =
  ignore schema;
  let b1 =
    let v = fresh "v" in
    let q = path_query e in
    let renamed =
      project_rename q.alg [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
    in
    let y = fresh "y" in
    {
      nalg =
        Join
          ( conf v,
            Filter
              ( violated q.h y,
                Join (renamed, bgp1 (Var v) (Pred p) (Var y)) ) );
      nv = v;
      ns = q.s;
      np = q.p;
      no_ = q.o;
    }
  in
  let b2 =
    let v = fresh "v" in
    let q = path_query (Rdf.Path.Prop p) in
    let renamed =
      project_rename q.alg [ q.t, v; q.h, q.h; q.s, q.s; q.p, q.p; q.o, q.o ]
    in
    let x = fresh "x" in
    {
      nalg =
        Join
          ( conf v,
            Filter
              ( violated x q.h,
                Join (renamed, bgp1 (Var v) (Ppath e) (Var x)) ) );
      nv = v;
      ns = q.s;
      np = q.p;
      no_ = q.o;
    }
  in
  canon_n [ b1; b2 ]

let neighborhood_query ?(schema = Schema.empty) ?(optimize = true) shape =
  let cols = nq ~schema (Shape.nnf shape) in
  let raw =
    Distinct
      (project_rename cols.nalg
         [ cols.nv, "v"; cols.ns, "s"; cols.np, "p"; cols.no_, "o" ])
  in
  if optimize then Sparql.Optimizer.simplify raw else raw

let fragment_query ?(schema = Schema.empty) ?(optimize = true) shapes =
  let branches =
    List.map
      (fun shape ->
        let cols = nq ~schema (Shape.nnf shape) in
        project_rename cols.nalg
          [ cols.ns, "s"; cols.np, "p"; cols.no_, "o" ])
      shapes
  in
  let raw = Distinct (union_all branches) in
  if optimize then Sparql.Optimizer.simplify raw else raw

(* ------------------------------------------------------------------ *)
(* Execution helpers                                                  *)
(* ------------------------------------------------------------------ *)

let bindings_to_graph rows ~s ~p ~o =
  List.fold_left
    (fun acc row ->
      match
        ( Sparql.Binding.find s row,
          Sparql.Binding.find p row,
          Sparql.Binding.find o row )
      with
      | Some sv, Some (Term.Iri pv), Some ov when not (Term.is_literal sv) ->
          Graph.add sv pv ov acc
      | _ -> acc)
    Graph.empty rows

let trace_via_sparql ?strategy g e a b =
  let q = path_query e in
  let filtered =
    Filter
      ( E_and (E_eq (E_var q.t, E_term a), E_eq (E_var q.h, E_term b)),
        q.alg )
  in
  let rows = Sparql.Eval.eval ?strategy g filtered in
  bindings_to_graph rows ~s:q.s ~p:q.p ~o:q.o

let neighborhoods_via_sparql ?strategy ?schema g shape =
  let alg = neighborhood_query ?schema shape in
  let rows = Sparql.Eval.eval ?strategy g alg in
  List.fold_left
    (fun acc row ->
      match
        ( Sparql.Binding.find "v" row,
          Sparql.Binding.find "s" row,
          Sparql.Binding.find "p" row,
          Sparql.Binding.find "o" row )
      with
      | Some v, Some sv, Some (Term.Iri pv), Some ov
        when not (Term.is_literal sv) ->
          let g0 = Option.value (Term.Map.find_opt v acc) ~default:Graph.empty in
          Term.Map.add v (Graph.add sv pv ov g0) acc
      | _ -> acc)
    Term.Map.empty rows

let fragment_via_sparql ?strategy ?schema g shapes =
  let alg = fragment_query ?schema shapes in
  let rows = Sparql.Eval.eval ?strategy g alg in
  bindings_to_graph rows ~s:"s" ~p:"p" ~o:"o"

let rec query_size alg =
  match alg with
  | Unit | BGP _ | Values _ -> 1
  | Join (a, b) | Left_join (a, b, _) | Union (a, b) | Minus (a, b) ->
      1 + query_size a + query_size b
  | Filter (_, a) | Extend (_, _, a) | Project (_, a) | Distinct a ->
      1 + query_size a
  | Group { sub; _ } -> 1 + query_size sub
