(* Schema construction error paths: duplicate names, reference cycles,
   error rendering, and lookup of undefined shapes. *)

open Rdf
open Shacl

let ex local = "http://example.org/" ^ local
let ext local = Term.iri (ex local)
let check = Alcotest.(check bool)

let def name shape target = Schema.{ name = ext name; shape; target }

let test_duplicate_name () =
  match
    Schema.make
      [ def "S" Shape.Top Shape.Bottom; def "S" Shape.Bottom Shape.Bottom ]
  with
  | Error (Schema.Duplicate_name n) ->
      check "duplicate name" true (Term.equal n (ext "S"))
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "duplicate accepted"

let test_recursive () =
  (* A -> B -> C -> A, through the shape expressions *)
  match
    Schema.make
      [ def "A" (Shape.has_shape (ex "B")) Shape.Bottom;
        def "B" (Shape.has_shape (ex "C")) Shape.Bottom;
        def "C" (Shape.has_shape (ex "A")) Shape.Bottom ]
  with
  | Error (Schema.Recursive cycle) ->
      check "cycle non-empty" true (cycle <> []);
      check "cycle members defined" true
        (List.for_all
           (fun n ->
             List.mem (Term.to_string n)
               [ "<" ^ ex "A" ^ ">"; "<" ^ ex "B" ^ ">"; "<" ^ ex "C" ^ ">" ])
           cycle)
  | Error _ -> Alcotest.fail "wrong error"
  | Ok _ -> Alcotest.fail "cycle accepted"

let test_self_recursive () =
  match Schema.make [ def "A" (Shape.has_shape (ex "A")) Shape.Bottom ] with
  | Error (Schema.Recursive _) -> ()
  | _ -> Alcotest.fail "self-reference accepted"

let test_recursive_via_target () =
  (* The cycle runs through a target expression, not a shape body. *)
  match
    Schema.make
      [ def "A" Shape.Top (Shape.has_shape (ex "B"));
        def "B" (Shape.has_shape (ex "A")) Shape.Bottom ]
  with
  | Error (Schema.Recursive _) -> ()
  | _ -> Alcotest.fail "target cycle accepted"

let test_pp_error () =
  Alcotest.(check string)
    "duplicate rendering"
    (Printf.sprintf "duplicate shape name <%s>" (ex "S"))
    (Format.asprintf "%a" Schema.pp_error
       (Schema.Duplicate_name (ext "S")));
  let rendered =
    Format.asprintf "%a" Schema.pp_error
      (Schema.Recursive [ ext "A"; ext "B"; ext "A" ])
  in
  check "recursive rendering mentions the cycle" true
    (String.length rendered > 0
    && String.sub rendered 0 17 = "recursive schema:")

let test_make_exn () =
  Alcotest.check_raises "make_exn raises on duplicates"
    (Invalid_argument
       (Printf.sprintf "Schema.make: duplicate shape name <%s>" (ex "S")))
    (fun () ->
      ignore
        (Schema.make_exn
           [ def "S" Shape.Top Shape.Bottom;
             def "S" Shape.Bottom Shape.Bottom ]))

let test_undefined_lookup () =
  let schema = Schema.def_list [ ex "S", Shape.Top, Shape.Bottom ] in
  check "find defined" true (Schema.find schema (ext "S") <> None);
  check "find undefined" true (Schema.find schema (ext "T") = None);
  (* an undefined shape behaves as top, per the SHACL recommendation *)
  check "def_shape undefined is top" true
    (Shape.equal (Schema.def_shape schema (ext "T")) Shape.Top);
  check "def_shape defined" true
    (Shape.equal (Schema.def_shape schema (ext "S")) Shape.Top)

(* --- evaluation-time unfolding ------------------------------------ *)

let check_shape = Alcotest.check Tgen.shape_testable
let path_p = Rdf.Path.Prop (Iri.of_string (ex "p"))

(* U is untargeted and used once (from under a negation), V untargeted
   and used twice, T targeted; W is untargeted, used once, and itself
   references the single-use X. *)
let unfold_schema =
  Schema.make_exn
    [ def "X" (Shape.Has_value (ext "x")) Shape.Bottom;
      def "W" (Shape.Ge (1, path_p, Shape.has_shape (ex "X"))) Shape.Bottom;
      def "U" (Shape.Has_value (ext "u")) Shape.Bottom;
      def "V" (Shape.Has_value (ext "v")) Shape.Bottom;
      def "T" (Shape.Has_value (ext "t")) (Shape.Has_value (ext "t"));
      def "A"
        (Shape.And
           [ Shape.Not (Shape.has_shape (ex "U"));
             Shape.has_shape (ex "V");
             Shape.has_shape (ex "T");
             Shape.Forall (path_p, Shape.has_shape (ex "W")) ])
        (Shape.Ge (1, path_p, Shape.has_shape (ex "V"))) ]

let test_unfold_single_use () =
  let u = Schema.unfold unfold_schema in
  check "every definition kept, in order" true
    (List.map (fun (d : Schema.def) -> d.name) (Schema.defs u)
    = List.map (fun (d : Schema.def) -> d.name) (Schema.defs unfold_schema));
  let a = Option.get (Schema.find u (ext "A")) in
  check_shape "single-use untargeted inlined, recursively; shared and \
               targeted kept"
    (Shape.And
       [ Shape.Not (Shape.Has_value (ext "u"));
         Shape.has_shape (ex "V");
         Shape.has_shape (ex "T");
         Shape.Forall (path_p, Shape.Ge (1, path_p, Shape.Has_value (ext "x"))) ])
    a.shape;
  check_shape "target references counted and kept"
    (Shape.Ge (1, path_p, Shape.has_shape (ex "V"))) a.target;
  check_shape "an inlined definition keeps its name, unfolded"
    (Shape.Ge (1, path_p, Shape.Has_value (ext "x")))
    (Schema.def_shape u (ext "W"));
  check "physically shared with its user" true
    (match a.shape with
    | Shape.And [ _; _; _; Shape.Forall (_, w) ] ->
        w == Schema.def_shape u (ext "W")
    | _ -> false)

let schema_equal h h' =
  List.length (Schema.defs h) = List.length (Schema.defs h')
  && List.for_all2
       (fun (d : Schema.def) (d' : Schema.def) ->
         Term.equal d.name d'.name
         && Shape.equal d.shape d'.shape
         && Shape.equal d.target d'.target)
       (Schema.defs h) (Schema.defs h')

let survey =
  Schema.make_exn
    (List.map
       (fun (e : Workload.Bench_shapes.entry) ->
         { Schema.name = Term.iri (Workload.Kg.ns ^ "bench/" ^ e.id);
           shape = e.shape;
           target = e.target })
       Workload.Bench_shapes.all)

(* The survey written as SHACL and read back (Appendix A's t(S) turns
   every property shape into its own untargeted definition) unfolds to
   the in-memory survey, definition for definition. *)
let test_unfold_survey_roundtrip () =
  let turtle =
    match Shapes_writer.to_turtle survey with
    | Ok s -> s
    | Error e -> Alcotest.failf "to_turtle: %a" Shapes_writer.pp_error e
  in
  let loaded = Shapes_graph.load_exn (Turtle.parse_exn turtle) in
  check "loader adds untargeted definitions" true
    (List.length (Schema.defs loaded) > List.length (Schema.defs survey));
  let u = Schema.unfold loaded in
  List.iter
    (fun (d : Schema.def) ->
      match Schema.find u d.name with
      | None -> Alcotest.failf "%a missing" Term.pp d.name
      | Some d' ->
          check_shape (Term.to_string d.name ^ " shape") d.shape d'.shape;
          check_shape (Term.to_string d.name ^ " target") d.target d'.target)
    (Schema.defs survey);
  check "idempotent on the loaded survey" true
    (schema_equal u (Schema.unfold u))

(* The shared generator reaches every case the rewrite distinguishes. *)
let test_gen_schema_coverage () =
  let rand = Tgen.rand () in
  let samples = List.init 300 (fun _ -> Tgen.gen_schema () rand) in
  let uses h name =
    List.fold_left
      (fun n (d : Schema.def) ->
        List.fold_left
          (fun n shape ->
            Shape.fold_subshapes
              (fun s n ->
                match s with
                | Shape.Has_shape m when Term.equal m name -> n + 1
                | _ -> n)
              shape n)
          n [ d.shape; d.target ])
      0 (Schema.defs h)
  in
  let some_def pred =
    List.exists (fun h -> List.exists (pred h) (Schema.defs h)) samples
  in
  let untargeted_used k h (d : Schema.def) =
    (not (Schema.targeted d)) && uses h d.name = k
  in
  let ref_under wrap =
    some_def (fun _ (d : Schema.def) ->
        Shape.exists_subshape
          (fun s ->
            match wrap s with
            | Some (Shape.Has_shape _) -> true
            | _ -> false)
          d.shape)
  in
  check "single-use untargeted" true (some_def (untargeted_used 1));
  check "shared untargeted" true (some_def (untargeted_used 2));
  check "referenced targeted" true
    (some_def (fun h d -> Schema.targeted d && uses h d.name > 0));
  check "reference in a target" true
    (some_def (fun _ d -> not (Term.Set.is_empty (Shape.referenced_names d.target))));
  check "reference under not" true
    (ref_under (function Shape.Not s -> Some s | _ -> None));
  check "reference under a quantifier" true
    (ref_under (function
      | Shape.Ge (_, _, s) | Shape.Le (_, _, s) | Shape.Forall (_, s) -> Some s
      | _ -> None))

let prop_unfold_idempotent =
  QCheck.Test.make ~name:"Schema.unfold idempotent" ~count:500
    (Tgen.arbitrary_schema ())
    (fun h ->
      let u = Schema.unfold h in
      schema_equal u (Schema.unfold u))

let suite =
  [ Alcotest.test_case "duplicate name rejected" `Quick test_duplicate_name;
    Alcotest.test_case "reference cycle rejected" `Quick test_recursive;
    Alcotest.test_case "self-reference rejected" `Quick test_self_recursive;
    Alcotest.test_case "cycle via target rejected" `Quick
      test_recursive_via_target;
    Alcotest.test_case "error rendering" `Quick test_pp_error;
    Alcotest.test_case "make_exn raises" `Quick test_make_exn;
    Alcotest.test_case "undefined shape lookup" `Quick test_undefined_lookup;
    Alcotest.test_case "unfold: single-use untargeted references" `Quick
      test_unfold_single_use;
    Alcotest.test_case "unfold: survey round trip" `Quick
      test_unfold_survey_roundtrip;
    Alcotest.test_case "gen_schema coverage" `Quick test_gen_schema_coverage ]

let props = [ prop_unfold_idempotent ]
