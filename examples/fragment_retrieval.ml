(* Shape fragments as a retrieval language (Section 4.1).

   Three BSBM-style "requests" are answered twice — once with a SPARQL
   CONSTRUCT query, once as a shape fragment — to show shapes doing the
   retrieval work of tree-shaped queries, including OPTIONAL (>=0) and
   negated-bound (<=0) idioms.

     dune exec examples/fragment_retrieval.exe *)

open Workload

let () =
  let g = Bsbm.generate ~seed:4 ~products:120 in
  Format.printf "data graph: %d triples@.@." (Rdf.Graph.cardinal g);

  let demo (q : Queries.t) =
    Format.printf "--- %s (%s): %s@." q.Queries.id q.Queries.source
      q.Queries.description;
    let image = Queries.run_construct g q in
    (match q.Queries.expressibility with
     | Queries.Shape_fragment { shape; exact } ->
         Format.printf "request shape: %s@."
           (Shacl.Shape_syntax.print
              ~namespaces:
                (Rdf.Namespace.add "bsbm" Bsbm.ns Rdf.Namespace.default)
              shape);
         let fragment = Provenance.Engine.fragment g [ shape ] in
         Format.printf
           "CONSTRUCT image: %d triples; shape fragment: %d triples; %s@."
           (Rdf.Graph.cardinal image)
           (Rdf.Graph.cardinal fragment)
           (if exact then
              if Rdf.Graph.equal image fragment then "identical"
              else "UNEXPECTED DIFFERENCE"
            else if Rdf.Graph.subset image fragment then
              "image contained in fragment (translation over-approximates <=0)"
            else "UNEXPECTED DIFFERENCE")
     | Queries.Not_expressible reason ->
         Format.printf
           "not expressible as a shape fragment (%s); CONSTRUCT returns %d triples@."
           reason (Rdf.Graph.cardinal image));
    Format.printf "@."
  in
  (* a plain tree query, the OPTIONAL idiom, the negated-bound idiom, and
     one beyond SHACL *)
  List.iter
    (fun id ->
      match List.find_opt (fun (q : Queries.t) -> q.Queries.id = id) Queries.all with
      | Some q -> demo q
      | None -> ())
    [ "B02"; "B06"; "B03"; "B10" ]
