open Rdf
open Shacl

let frag ?(schema = Schema.empty) ?budget g shapes =
  (* The node scan is shape-independent: do it once per call, not once
     per shape; only the hasValue constants vary per shape. *)
  let nodes = Graph.nodes g in
  let candidates shape = Term.Set.union nodes (Shape.constants shape) in
  List.fold_left
    (fun acc shape ->
      let check = Neighborhood.naive_checker ?budget ~schema g shape in
      Term.Set.fold
        (fun v acc ->
          let conforms, neighborhood = check v in
          if conforms then Graph.union acc neighborhood else acc)
        (candidates shape) acc)
    Graph.empty shapes

let frag_schema ?budget schema g =
  frag ~schema ?budget g (Schema.request_shapes schema)
