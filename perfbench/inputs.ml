(* Seeded inputs of the three workloads.  Everything here is a pure
   function of the workload and the seed: the data graph, the survey
   shapes file, the request list the clients replay and the update
   deltas.  The program under test only ever sees the files. *)

type workload = Kg_cli | Serve_read | Serve_write

let workloads = [ ("kg-cli", Kg_cli); ("serve-read", Serve_read); ("serve-write", Serve_write) ]
let name w = fst (List.find (fun (_, w') -> w' = w) workloads)

(* Kg individuals (about 4.8 triples each).  The CLI graph (~29k
   triples) is a third of the paper's ~100k-triple slices, so a 20 s run
   holds about eight each of validate, fragment and neighborhood
   processes; the read service's graph keeps an ad-hoc fragment near
   0.1 s; the write service's keeps a one-triple update near 0.1 s. *)
let individuals = function
  | Kg_cli -> 6_000
  | Serve_read -> 4_000
  | Serve_write -> 2_000

(* The 57-shape survey as one shapes file, named in the Kg namespace. *)
let survey_turtle =
  let survey =
    Shacl.Schema.make_exn
      (List.map
         (fun (e : Workload.Bench_shapes.entry) ->
           { Shacl.Schema.name = Rdf.Term.iri (Workload.Kg.ns ^ "bench/" ^ e.id);
             shape = e.shape;
             target = e.target })
         Workload.Bench_shapes.all)
  in
  match Shacl.Shapes_writer.to_turtle survey with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "%a" Shacl.Shapes_writer.pp_error e)

let namespaces = Rdf.Namespace.default
let print_shape s = Shacl.Shape_syntax.print ~namespaces s

type request =
  | Nbh of { node : string; shape : string }
  | Frag of string  (* one ad-hoc request shape, no target *)
  | Val

let kind = function Nbh _ -> "neighborhood" | Frag _ -> "fragment" | Val -> "validate"

let op = function
  | Nbh { node; shape } -> Service.Wire.Neighborhood { node; shape }
  | Frag s -> Service.Wire.Fragment [ s ]
  | Val -> Service.Wire.Validate

(* One generated instance of a workload. *)
type t = {
  workload : workload;
  seed : int;
  graph : Rdf.Graph.t;       (* frozen *)
  nbh_pool : request array;  (* distinct neighborhood requests *)
}

let rng seed salt = Random.State.make [| seed; salt |]
let pick st a = a.(Random.State.int st (Array.length a))

let node_text i = "<" ^ Rdf.Iri.to_string i ^ ">"

(* Seeded permutation of an array (Fisher-Yates). *)
let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let entries = Array.of_list Workload.Bench_shapes.all

(* Neighborhood requests ask about targets of a survey shape (random
   subjects when the shape targets nothing), as a user asking why a node
   does or does not conform would: four nodes for each of the 57 shapes,
   so every seed asks about every shape equally often. *)
let make_nbh_pool st g =
  let iris set =
    Array.of_list (List.filter_map Rdf.Term.as_iri (Rdf.Term.Set.elements set))
  in
  let subjects = iris (Rdf.Graph.subjects_all g) in
  Array.concat
    (Array.to_list
       (Array.map
          (fun (e : Workload.Bench_shapes.entry) ->
            let def =
              { Shacl.Schema.name = Rdf.Term.iri "urn:t"; shape = Shacl.Shape.Top;
                target = e.target }
            in
            let targets = iris (Shacl.Validate.target_nodes Shacl.Schema.empty g def) in
            let nodes = if Array.length targets > 0 then targets else subjects in
            Array.init 4 (fun _ ->
                Nbh { node = node_text (pick st nodes); shape = print_shape e.shape }))
          entries))

(* Ad-hoc fragment requests: a fixed spread of six survey request
   shapes (S01, S11, ..., S51), the same for every seed. *)
let frag_pool =
  Array.init 6 (fun i ->
      Frag (print_shape (Workload.Bench_shapes.request_shape entries.(i * 10))))

let generate workload ~seed =
  let g = Workload.Kg.generate ~seed ~individuals:(individuals workload) in
  let g = Rdf.Graph.freeze g in
  { workload; seed; graph = g;
    nbh_pool = shuffle (rng seed 5) (make_nbh_pool (rng seed 1) g) }

(* A closed-loop request list of fixed length and fixed composition —
   1% validate, 9% ad-hoc fragment, the rest neighborhood, each pool
   cycled evenly — in a seeded order. *)
let request_list t ~count =
  let n_val = count / 100 and n_frag = count * 9 / 100 in
  let cycle pool n = Array.init n (fun i -> pool.(i mod Array.length pool)) in
  shuffle (rng t.seed 2)
    (Array.concat
       [ Array.make n_val Val; cycle frag_pool n_frag;
         cycle t.nbh_pool (count - n_val - n_frag) ])

(* Update deltas: [pairs] remove-then-restore pairs, mostly one triple,
   every fifth pair ten.  The triples are drawn round-robin over the
   data predicates (those with at least 100 triples, which leaves out
   the class hierarchy), so every seed changes the same mix of
   properties; the seed picks the triples.  Each pair returns the graph
   to its initial state. *)
let delta_triples t ~pairs =
  let st = rng t.seed 3 in
  let by_pred =
    Rdf.Iri.Set.elements (Rdf.Graph.predicates_all t.graph)
    |> List.map (fun p -> Array.of_list (Rdf.Graph.predicate_triples t.graph p))
    |> List.filter (fun a -> Array.length a >= 100)
    |> Array.of_list
  in
  let next = ref 0 in
  List.init pairs (fun i ->
      let k = if i mod 5 = 4 then 10 else 1 in
      let rec draw acc =
        if List.length acc = k then acc
        else begin
          let tr = pick st by_pred.(!next mod Array.length by_pred) in
          incr next;
          draw (if List.exists (Rdf.Triple.equal tr) acc then acc else tr :: acc)
        end
      in
      List.sort Rdf.Triple.compare (draw []))

let turtle_of_triples ts =
  Rdf.Turtle.to_string ~prefixes:namespaces (Rdf.Graph.of_list ts)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))
