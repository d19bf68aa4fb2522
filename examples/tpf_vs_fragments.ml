(* Triple Pattern Fragments vs shape fragments (Section 6.1).

   TPF servers answer single triple patterns; Proposition 6.2 pins down
   exactly which of those are shape fragments in disguise.  This example
   answers each expressible form both ways on a small graph and shows an
   inexpressible one failing the Lemma D.1 closure property.

     dune exec examples/tpf_vs_fragments.exe *)

open Rdf
open Workload

let g =
  Turtle.parse_exn
    {|@prefix ex: <http://example.org/> .
      ex:c ex:p ex:d , ex:x .
      ex:x ex:p ex:x .
      ex:x ex:q ex:c .
      ex:d ex:r "datum" .
    |}

let () =
  Format.printf "graph:@.%a@.@." Graph.pp g;
  List.iter
    (fun form ->
      match Tpf.shape_for form with
      | Some shape ->
          let tpf_result = Tpf.eval g form in
          let fragment = Provenance.Engine.fragment g [ shape ] in
          Format.printf "TPF %s  ==  fragment of  %s@."
            (Tpf.form_name form)
            (Shacl.Shape_syntax.print shape);
          Format.printf "  both return %d triple(s); equal: %b@.@."
            (Graph.cardinal tpf_result)
            (Graph.equal tpf_result fragment)
      | None -> assert false)
    Tpf.expressible_forms;
  (* one inexpressible form with its Appendix D counterexample *)
  match Tpf.counterexamples with
  | (form, cex) :: _ ->
      Format.printf
        "TPF %s is NOT expressible: on the counterexample graph@.%a@.its \
         result violates the closure property (Lemma D.1) every shape \
         fragment satisfies: %b@."
        (Tpf.form_name form) Graph.pp cex
        (Tpf.lemma_d1_violated form cex)
  | [] -> ()
