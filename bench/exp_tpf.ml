(* Proposition 6.2: triple pattern fragments vs shape fragments. *)

open Rdf
open Workload

let demo_graph =
  (* small graph with self-loops and varied predicates over the fixed
     example vocabulary used by the TPF forms *)
  let t s p o =
    Triple.make
      (Term.iri ("http://example.org/" ^ s))
      (Iri.of_string ("http://example.org/" ^ p))
      (Term.iri ("http://example.org/" ^ o))
  in
  Graph.of_list
    [ t "c" "p" "d"; t "c" "p" "x"; t "x" "p" "x"; t "x" "p" "c";
      t "y" "q" "c"; t "c" "q" "y"; t "d" "p" "d"; t "y" "p" "z" ]

let run ~quick:_ =
  Util.header "Proposition 6.2: TPFs expressible as shape fragments";
  Printf.printf "%-28s %-14s %6s %6s %s\n" "TPF form" "expressible?" "|tpf|"
    "|frag|" "agree?";
  List.iter
    (fun form ->
      let tpf_result = Tpf.eval demo_graph form in
      match Tpf.shape_for form with
      | Some shape ->
          let fragment = Provenance.Engine.fragment demo_graph [ shape ] in
          Printf.printf "%-28s %-14s %6d %6d %s\n" (Tpf.form_name form) "yes"
            (Graph.cardinal tpf_result)
            (Graph.cardinal fragment)
            (if Graph.equal tpf_result fragment then "yes" else "NO")
      | None ->
          Printf.printf "%-28s %-14s %6d %6s %s\n" (Tpf.form_name form) "no"
            (Graph.cardinal tpf_result) "-" "-")
    (Tpf.expressible_forms @ Tpf.inexpressible_forms);
  Printf.printf
    "\nAppendix D counterexamples (TPF result violates the Lemma D.1 closure\n\
     property that every shape fragment satisfies):\n";
  List.iter
    (fun (form, g) ->
      Printf.printf "  %-28s on %d-triple graph: violation witnessed: %b\n"
        (Tpf.form_name form) (Graph.cardinal g)
        (Tpf.lemma_d1_violated form g))
    Tpf.counterexamples
