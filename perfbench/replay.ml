(* In-process reference answers: the public library functions a
   [serve] process calls, applied to the same graph and schema, so
   every reply the service sends can be compared with the expected one.
   Evaluation ([evaluate]) and serialization ([reply_of]) are separate so
   the traced run can time each. *)

let turtle g = Rdf.Turtle.to_string ~prefixes:Inputs.namespaces g

let parse_shape src =
  match Shacl.Shape_syntax.parse ~namespaces:Inputs.namespaces src with
  | Ok s -> s
  | Error e ->
      failwith (Format.asprintf "shape %S: %a" src Shacl.Shape_syntax.pp_error e)

let node_of_text src = Rdf.Term.iri (String.sub src 1 (String.length src - 2))

let validated (report : Shacl.Validate.report) =
  Service.Wire.Validated
    { conforms = report.conforms;
      checks = List.length report.results;
      violations = List.length (Shacl.Validate.violations report) }

(* What a request evaluates to, before serialization. *)
type evaluated =
  | Nb of bool * Rdf.Graph.t  (* verdict; neighborhood or why-not graph *)
  | Report of Shacl.Validate.report
  | Fragment of Rdf.Graph.t * Provenance.Engine.Stats.t

let evaluate ~schema g = function
  | Inputs.Val -> Report (fst (Provenance.Engine.validate ~jobs:1 schema g))
  | Inputs.Frag src ->
      let shape = parse_shape src in
      let req =
        Provenance.Engine.request ~label:(Inputs.print_shape shape) shape
      in
      let frag, stats = Provenance.Engine.run ~schema ~jobs:1 g [ req ] in
      Fragment (frag, stats)
  | Inputs.Nbh { node; shape } -> (
      let v = node_of_text node and shape = parse_shape shape in
      match Provenance.Neighborhood.check ~schema g v shape with
      | true, nb -> Nb (true, nb)
      | false, _ ->
          let _, why = Provenance.Neighborhood.check ~schema g v (Shacl.Shape.Not shape) in
          Nb (false, why))

let reply_of = function
  | Report r -> validated r
  | Fragment (g, _) ->
      Service.Wire.Fragmented { triples = Rdf.Graph.cardinal g; turtle = turtle g }
  | Nb (conforms, g) ->
      Service.Wire.Neighborhoods { conforms; turtle = turtle g }

(* What [shaclprov neighborhood --shape S --node N] prints. *)
let cli_neighborhood ~schema g = function
  | Inputs.Nbh { node; shape } ->
      let v = node_of_text node and shape = parse_shape shape in
      let verdict =
        match Provenance.Neighborhood.check ~schema g v shape with
        | true, nb ->
            Format.asprintf "%a conforms; neighborhood:@.%s@." Rdf.Term.pp v (turtle nb)
        | false, _ ->
            let why =
              Option.value ~default:Rdf.Graph.empty
                (Provenance.Neighborhood.why_not ~schema g v shape)
            in
            Format.asprintf "%a does not conform; why-not explanation:@.%s@."
              Rdf.Term.pp v (turtle why)
      in
      Format.asprintf "shape: %s@." (Inputs.print_shape shape) ^ verdict
  | Inputs.Frag _ | Inputs.Val -> invalid_arg "Replay.cli_neighborhood"

(* Reference replies for every distinct request of a list. *)
let table ~schema g reqs =
  let h = Hashtbl.create 256 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem h r) then Hashtbl.add h r (reply_of (evaluate ~schema g r)))
    reqs;
  h

(* The maintained answers of a journalled server, from scratch. *)
let schema_fragment ~schema g =
  let frag, _ =
    Provenance.Engine.run ~schema ~jobs:1 g
      (Provenance.Engine.requests_of_schema schema)
  in
  Service.Wire.Fragmented { triples = Rdf.Graph.cardinal frag; turtle = turtle frag }

let load_schema path =
  match Rdf.Turtle.parse_file path with
  | Error e -> failwith (Format.asprintf "%a" Rdf.Turtle.pp_error e)
  | Ok sg -> (
      match Shacl.Shapes_graph.load sg with
      | Ok s -> s
      | Error e -> failwith (Format.asprintf "%a" Shacl.Shapes_graph.pp_error e))
