(* Random generators shared by the property-based tests.

   Graphs are drawn over a small fixed vocabulary so that random shapes
   have a realistic chance of being satisfied: a handful of IRI nodes,
   three properties, and a few literals with languages and numbers. *)

open Rdf

let ex local = "http://example.org/" ^ local
let iri local = Term.iri (ex local)
let prop_p = Iri.of_string (ex "p")
let prop_q = Iri.of_string (ex "q")
let prop_r = Iri.of_string (ex "r")
let props = [ prop_p; prop_q; prop_r ]
let node_names = [ "a"; "b"; "c"; "d"; "e" ]
let nodes = List.map iri node_names

let literals =
  [ Term.int 1;
    Term.int 2;
    Term.int 5;
    Term.str "x";
    Term.Literal (Literal.lang_string "hello" ~lang:"en");
    Term.Literal (Literal.lang_string "bonjour" ~lang:"fr");
    Term.Literal (Literal.lang_string "hi" ~lang:"en") ]

let subjects = nodes
let objects = nodes @ literals

open QCheck

let gen_subject = Gen.oneofl subjects
let gen_object = Gen.oneofl objects
let gen_prop = Gen.oneofl props

let gen_triple =
  Gen.map3 (fun s p o -> Triple.make s p o) gen_subject gen_prop gen_object

let gen_graph =
  Gen.map Graph.of_list (Gen.list_size (Gen.int_range 0 25) gen_triple)

(* Class membership and hierarchy over the IRI nodes, the triples class
   targets read. *)
let class_props = [ Vocab.Rdf.type_; Vocab.Rdfs.sub_class_of ]

let gen_class_triple =
  Gen.map3 Triple.make gen_subject (Gen.oneofl class_props) (Gen.oneofl nodes)

let gen_triple_with_classes =
  Gen.frequency [ 2, gen_triple; 1, gen_class_triple ]

let gen_graph_with_classes =
  Gen.map Graph.of_list
    (Gen.list_size (Gen.int_range 0 25) gen_triple_with_classes)

let arbitrary_graph =
  make gen_graph ~print:(fun g -> Format.asprintf "%a" Graph.pp g)

(* Path expressions of bounded depth. *)
let rec gen_path depth =
  let open Gen in
  if depth <= 0 then map (fun p -> Rdf.Path.Prop p) gen_prop
  else
    frequency
      [ 3, map (fun p -> Rdf.Path.Prop p) gen_path_leaf_prop;
        1, map (fun e -> Rdf.Path.Inv e) (gen_path (depth - 1));
        1,
        map2
          (fun a b -> Rdf.Path.Seq (a, b))
          (gen_path (depth - 1))
          (gen_path (depth - 1));
        1,
        map2
          (fun a b -> Rdf.Path.Alt (a, b))
          (gen_path (depth - 1))
          (gen_path (depth - 1));
        1, map (fun e -> Rdf.Path.Star e) (gen_path (depth - 1));
        1, map (fun e -> Rdf.Path.Opt e) (gen_path (depth - 1)) ]

and gen_path_leaf_prop = gen_prop

let arbitrary_path =
  make (gen_path 2) ~print:Rdf.Path.to_string

(* Node tests that can hold on the small vocabulary. *)
let gen_node_test =
  let open Gen in
  oneof
    [ oneofl
        Shacl.Node_test.
          [ Node_kind Iri_kind;
            Node_kind Literal_kind;
            Node_kind Blank_kind;
            Node_kind Iri_or_literal ];
      map (fun dt -> Shacl.Node_test.Datatype dt)
        (oneofl [ Vocab.Xsd.integer; Vocab.Xsd.string; Vocab.Rdf.lang_string ]);
      map (fun n -> Shacl.Node_test.Min_inclusive (Literal.int n)) (int_range 0 3);
      map (fun n -> Shacl.Node_test.Max_exclusive (Literal.int n)) (int_range 0 3);
      map (fun n -> Shacl.Node_test.Min_length n) (int_range 0 3);
      return (Shacl.Node_test.Language "en") ]

(* Shapes of bounded depth, covering every constructor.  Counting bounds
   are kept small so both satisfied and violated cases arise.  [refs]
   adds [hasShape] leaves naming those shapes, at any depth. *)
let rec gen_shape ?(refs = []) depth =
  let open Gen in
  let ref_leaf =
    match refs with
    | [] -> []
    | _ -> [ 5, map (fun s -> Shacl.Shape.Has_shape s) (oneofl refs) ]
  in
  let leaf =
    frequency
      (ref_leaf
      @ [ 1, return Shacl.Shape.Top;
        1, return Shacl.Shape.Bottom;
        2, map (fun c -> Shacl.Shape.Has_value c) gen_object;
        2, map (fun t -> Shacl.Shape.Test t) gen_node_test;
        1,
        map2
          (fun e p -> Shacl.Shape.Eq (Shacl.Shape.Path e, p))
          (gen_path 1) gen_prop;
        1, map (fun p -> Shacl.Shape.Eq (Shacl.Shape.Id, p)) gen_prop;
        1,
        map2
          (fun e p -> Shacl.Shape.Disj (Shacl.Shape.Path e, p))
          (gen_path 1) gen_prop;
        1, map (fun p -> Shacl.Shape.Disj (Shacl.Shape.Id, p)) gen_prop;
        1,
        map
          (fun ps -> Shacl.Shape.Closed (Iri.Set.of_list ps))
          (oneofl [ [ prop_p ]; [ prop_p; prop_q ]; props; [] ]);
        1,
        map2 (fun e p -> Shacl.Shape.Less_than (e, p)) (gen_path 1) gen_prop;
        1,
        map2 (fun e p -> Shacl.Shape.Less_than_eq (e, p)) (gen_path 1) gen_prop;
        1, map2 (fun e p -> Shacl.Shape.More_than (e, p)) (gen_path 1) gen_prop;
        1, map (fun e -> Shacl.Shape.Unique_lang e) (gen_path 1) ])
  in
  if depth <= 0 then leaf
  else
    frequency
      [ 4, leaf;
        2, map (fun s -> Shacl.Shape.Not s) (gen_shape ~refs (depth - 1));
        2,
        map
          (fun l -> Shacl.Shape.And l)
          (list_size (int_range 2 3) (gen_shape ~refs (depth - 1)));
        2,
        map
          (fun l -> Shacl.Shape.Or l)
          (list_size (int_range 2 3) (gen_shape ~refs (depth - 1)));
        3,
        map3
          (fun n e s -> Shacl.Shape.Ge (n, e, s))
          (int_range 0 2) (gen_path 1)
          (gen_shape ~refs (depth - 1));
        3,
        map3
          (fun n e s -> Shacl.Shape.Le (n, e, s))
          (int_range 0 2) (gen_path 1)
          (gen_shape ~refs (depth - 1));
        2,
        map2
          (fun e s -> Shacl.Shape.Forall (e, s))
          (gen_path 1)
          (gen_shape ~refs (depth - 1)) ]

let arbitrary_shape =
  make (gen_shape 2) ~print:Shacl.Shape.to_string

(* Acyclic schemas with references.  Definition [i], named [shape<i>],
   may reference only definitions [0 .. i-1], so every draw is a valid
   schema; references occur at any depth of a shape (under [Not] and the
   quantifiers too) and in targets.  About a quarter of the definitions
   are untargeted, and a reference to one is single-use or shared as the
   draw falls.  Targets are the real-SHACL (monotone) forms — node,
   subjects-of, objects-of and class targets, and unions of them (the
   forms [Validate.fast_targets] answers from the indexes) — or, unless
   [monotone], sometimes an arbitrary shape, so the planner's full-scan
   path runs too. *)
let gen_schema ?(monotone = false) () =
  let open Gen in
  let name i = Term.iri (ex (Printf.sprintf "shape%d" i)) in
  let rec real_target depth =
    let forms =
      [ map (fun c -> Shacl.Shape.Has_value c) (oneofl nodes);
        map (fun p -> Shacl.Shape.Ge (1, Rdf.Path.Prop p, Shacl.Shape.Top))
          gen_prop;
        map
          (fun p ->
            Shacl.Shape.Ge (1, Rdf.Path.Inv (Rdf.Path.Prop p), Shacl.Shape.Top))
          gen_prop;
        map
          (fun c ->
            Shacl.Shape.Ge
              ( 1,
                Rdf.Path.Seq
                  ( Rdf.Path.Prop Vocab.Rdf.type_,
                    Rdf.Path.Star (Rdf.Path.Prop Vocab.Rdfs.sub_class_of) ),
                Shacl.Shape.Has_value c ))
          (oneofl nodes) ]
    in
    if depth <= 0 then oneof forms
    else
      frequency
        [ 4, oneof forms;
          1,
          map
            (fun l -> Shacl.Shape.Or l)
            (list_size (int_range 2 3) (real_target (depth - 1))) ]
  in
  let real_target = real_target 1 in
  let gen_target refs =
    frequency
      ([ 5, real_target; 2, return Shacl.Shape.Bottom ]
      @ if monotone then [] else [ 2, gen_shape ~refs 1 ])
  in
  int_range 1 4 >>= fun n ->
  let rec defs i acc =
    if i >= n then return (Shacl.Schema.make_exn (List.rev acc))
    else
      let refs = List.init i name in
      gen_shape ~refs 2 >>= fun shape ->
      gen_target refs >>= fun target ->
      defs (i + 1) ({ Shacl.Schema.name = name i; shape; target } :: acc)
  in
  defs 0 []

let arbitrary_schema ?monotone () =
  make (gen_schema ?monotone ())
    ~print:(fun h -> Format.asprintf "%a" Shacl.Schema.pp h)

let arbitrary_shape_deep =
  make (gen_shape 3) ~print:Shacl.Shape.to_string

let gen_node = Gen.oneofl nodes
let arbitrary_node = make gen_node ~print:Term.to_string

(* Alcotest testables. *)
let graph_testable =
  Alcotest.testable Graph.pp Graph.equal

let term_testable = Alcotest.testable Term.pp Term.equal

let term_set_testable =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
           Term.pp)
        (Term.Set.elements s))
    Term.Set.equal

let shape_testable = Alcotest.testable Shacl.Shape.pp Shacl.Shape.equal

(* Deterministic seed for sampled checks inside unit tests. *)
let rand () = Random.State.make [| 0x5eed; 42 |]

let qsuite name tests =
  name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests

(* The fragment [Engine.run] returns for exactly the triples [l]: a row
   view of a larger store.  [noise] extra literal-valued triples per
   triple of [l] go into the source graph under a predicate the request
   does not read; with [~noise:0] the view covers every row of its
   store.  The request is "some [p]-edge" for each predicate of [l], so
   every triple of [l] is in the neighborhood of its subject. *)
let engine_view ?(noise = 4) l =
  let noise_p = Iri.of_string "http://noise.example/n" in
  let extra =
    List.concat_map
      (fun t ->
        List.init noise (fun i ->
            Triple.make (Triple.subject t) noise_p
              (Term.str (Format.asprintf "noise %d %a" i Triple.pp t))))
      l
  in
  let preds = List.sort_uniq Iri.compare (List.map Triple.predicate l) in
  let shape =
    Shacl.Shape.or_
      (List.map
         (fun p -> Shacl.Shape.exists (Rdf.Path.Prop p) Shacl.Shape.Top)
         preds)
  in
  fst
    (Provenance.Engine.run
       (Graph.of_list (l @ extra))
       [ Provenance.Engine.request shape ])
