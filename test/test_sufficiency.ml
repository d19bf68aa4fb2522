(* The paper's correctness theorems, as properties over random inputs:
   Sufficiency (Theorem 3.4), Corollary 4.2, Conformance (Theorem 4.1). *)

open Rdf
open Shacl
open Provenance

let schema = Schema.empty

(* Theorem 3.4, minimal G' = B itself. *)
let prop_sufficiency_neighborhood =
  QCheck.Test.make ~name:"Sufficiency: conforms in B(v,G,phi)" ~count:800
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape_deep))
    (fun (g, (v, s)) ->
      match Sufficiency.check_neighborhood g v s with
      | Ok () -> true
      | Error f ->
          QCheck.Test.fail_reportf "%a" Sufficiency.pp_failure f)

(* Theorem 3.4, random intermediate subgraphs B ⊆ G' ⊆ G. *)
let prop_sufficiency_intermediate =
  QCheck.Test.make ~name:"Sufficiency: conforms in sampled G'" ~count:300
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape))
    (fun (g, (v, s)) ->
      let rand = Tgen.rand () in
      match Sufficiency.check_intermediate ~rand ~samples:5 g v s with
      | Ok () -> true
      | Error f -> QCheck.Test.fail_reportf "%a" Sufficiency.pp_failure f)

(* Corollary 4.2: conformance carries over to Frag(G, S). *)
let prop_corollary_4_2 =
  QCheck.Test.make ~name:"Corollary 4.2: fragment preserves conformance"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph Tgen.arbitrary_shape)
    (fun (g, s) ->
      let fragment = Fragment.frag g [ s ] in
      Term.Set.for_all
        (fun v ->
          (not (Conformance.conforms schema g v s))
          || Conformance.conforms schema fragment v s)
        (Graph.nodes g))

(* Example 4.3: the converse fails in general; witness the paper's
   counterexample. *)
let test_example_4_3 () =
  let a = Term.iri "http://example.org/a" in
  let b = Term.iri "http://example.org/b" in
  let p = Iri.of_string "http://example.org/p" in
  let g = Graph.of_list [ Triple.make a p b ] in
  let shape = Shape.Le (0, Rdf.Path.Prop p, Shape.Top) in
  let fragment = Fragment.frag g [ shape ] in
  Alcotest.(check bool) "fragment is empty" true (Graph.is_empty fragment);
  Alcotest.(check bool) "a conforms in fragment" true
    (Conformance.conforms schema fragment a shape);
  Alcotest.(check bool) "a does not conform in G" false
    (Conformance.conforms schema g a shape)

(* Theorem 4.1 needs monotone targets: random schemas with references
   and real-SHACL target forms. *)
let arbitrary_schema = Tgen.arbitrary_schema ~monotone:true ()

let prop_theorem_4_1 =
  QCheck.Test.make ~name:"Theorem 4.1: schema fragment conforms" ~count:300
    QCheck.(pair Tgen.arbitrary_graph arbitrary_schema)
    (fun (g, h) ->
      match Sufficiency.check_fragment_conformance h g with
      | Ok () -> true
      | Error m -> QCheck.Test.fail_reportf "%s" m)

(* Remark 3.8: neighborhoods stay within the connected component. *)
let prop_connected_component =
  QCheck.Test.make ~name:"Remark 3.8: neighborhood within component"
    ~count:200
    QCheck.(pair Tgen.arbitrary_graph (pair Tgen.arbitrary_node Tgen.arbitrary_shape))
    (fun (g, (v, s)) ->
      let neighborhood = Neighborhood.b g v s in
      (* compute the undirected component of v *)
      let step n =
        let out =
          List.map (fun t -> Triple.object_ t) (Graph.subject_triples g n)
        in
        let inc =
          List.map (fun t -> Triple.subject t) (Graph.object_triples g n)
        in
        Term.Set.of_list (out @ inc)
      in
      let rec closure visited frontier =
        if Term.Set.is_empty frontier then visited
        else
          let next =
            Term.Set.fold
              (fun n acc -> Term.Set.union acc (step n))
              frontier Term.Set.empty
          in
          let fresh = Term.Set.diff next visited in
          closure (Term.Set.union visited fresh) fresh
      in
      let component = closure (Term.Set.singleton v) (Term.Set.singleton v) in
      Graph.for_all
        (fun t -> Term.Set.mem (Triple.subject t) component)
        neighborhood)

let suite = [ "Example 4.3 (converse fails)", `Quick, test_example_4_3 ]

let props =
  [ prop_sufficiency_neighborhood; prop_sufficiency_intermediate;
    prop_corollary_4_2; prop_theorem_4_1; prop_connected_component ]
