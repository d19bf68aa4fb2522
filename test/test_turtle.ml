(* Turtle reader/writer tests. *)

open Rdf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ex local = Term.iri ("http://example.org/" ^ local)
let exi local = Iri.of_string ("http://example.org/" ^ local)

let test_basic () =
  let g =
    Turtle.parse_exn
      {|@prefix ex: <http://example.org/> .
        ex:a ex:p ex:b .
        ex:b ex:p ex:c ; ex:q "hello" .
      |}
  in
  check_int "triples" 3 (Graph.cardinal g);
  check "a p b" true (Graph.mem_spo (ex "a") (exi "p") (ex "b") g);
  check "b q hello" true
    (Graph.mem_spo (ex "b") (exi "q") (Term.str "hello") g)

let test_literals () =
  let g =
    Turtle.parse_exn
      {|@prefix ex: <http://example.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        ex:a ex:age 42 ; ex:score 3.14 ; ex:big 1.0e6 ;
             ex:active true ;
             ex:name "Anna"@en ;
             ex:when "2021-01-01T00:00:00"^^xsd:dateTime .
      |}
  in
  check_int "triples" 6 (Graph.cardinal g);
  check "int" true (Graph.mem_spo (ex "a") (exi "age") (Term.int 42) g);
  check "bool" true (Graph.mem_spo (ex "a") (exi "active") (Term.bool true) g);
  check "lang" true
    (Graph.mem_spo (ex "a") (exi "name")
       (Term.Literal (Literal.lang_string "Anna" ~lang:"en"))
       g);
  check "dateTime" true
    (Graph.mem_spo (ex "a") (exi "when")
       (Term.Literal (Literal.date_time "2021-01-01T00:00:00"))
       g)

let test_object_lists_and_a () =
  let g =
    Turtle.parse_exn
      {|@prefix ex: <http://example.org/> .
        @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
        ex:x a ex:Widget ;
             ex:part ex:y, ex:z .
      |}
  in
  check_int "triples" 3 (Graph.cardinal g);
  check "rdf:type via 'a'" true
    (Graph.mem_spo (ex "x") Vocab.Rdf.type_ (ex "Widget") g)

let test_blank_nodes () =
  let g =
    Turtle.parse_exn
      {|@prefix ex: <http://example.org/> .
        ex:s ex:p [ ex:q ex:o ; ex:r "v" ] .
        _:label ex:p ex:s .
      |}
  in
  check_int "triples" 4 (Graph.cardinal g);
  (* one anonymous node with two properties *)
  let anon_subjects =
    Graph.fold
      (fun t acc ->
        match Triple.subject t with
        | Term.Blank lbl -> lbl :: acc
        | _ -> acc)
      g []
  in
  check_int "blank subjects" 3 (List.length anon_subjects)

let test_collections () =
  let g =
    Turtle.parse_exn
      {|@prefix ex: <http://example.org/> .
        ex:s ex:list ( ex:a ex:b ex:c ) .
        ex:t ex:empty ( ) .
      |}
  in
  (* list of 3 = 6 first/rest triples + 1 attachment; empty list = rdf:nil *)
  check_int "triples" 8 (Graph.cardinal g);
  check "empty collection is rdf:nil" true
    (Graph.mem_spo (ex "t") (exi "empty") (Term.Iri Vocab.Rdf.nil) g);
  (* Read back the list through the SHACL list reader. *)
  let head =
    Term.Set.choose (Graph.objects g (ex "s") (exi "list"))
  in
  match Shacl.Shapes_graph.rdf_list g head with
  | Ok members ->
      Alcotest.(check (list string))
        "list members"
        [ "http://example.org/a"; "http://example.org/b";
          "http://example.org/c" ]
        (List.map Term.to_string members
        |> List.map (fun s -> String.sub s 1 (String.length s - 2)))
  | Error e -> Alcotest.failf "rdf_list: %a" Shacl.Shapes_graph.pp_error e

let test_comments_and_strings () =
  let g =
    Turtle.parse_exn
      {|# leading comment
        @prefix ex: <http://example.org/> . # trailing comment
        ex:a ex:p "multi\nline" .
        ex:a ex:q """long
string""" .
        ex:a ex:r "tab\there" .
      |}
  in
  check_int "triples" 3 (Graph.cardinal g);
  check "escaped newline" true
    (Graph.mem_spo (ex "a") (exi "p") (Term.str "multi\nline") g);
  check "long string" true
    (Graph.mem_spo (ex "a") (exi "q") (Term.str "long\nstring") g)

let test_errors () =
  check "unterminated iri" true
    (Result.is_error (Turtle.parse "<http://unterminated"));
  check "missing dot" true
    (Result.is_error (Turtle.parse "<http://a> <http://b> <http://c>"));
  check "unbound prefix" true (Result.is_error (Turtle.parse "ex:a ex:b ex:c ."))

(* Regressions for inputs that used to escape [parse] as exceptions
   rather than [Error]: an empty language tag reached [Literal.make]
   ([Invalid_argument]), and an out-of-range [\U] escape reached
   [Char.chr]. *)
let test_hostile_inputs () =
  check "empty language tag" true
    (Result.is_error (Turtle.parse {|<http://a> <http://b> "x"@ .|}));
  check "\\U escape beyond U+10FFFF" true
    (Result.is_error (Turtle.parse {|<http://a> <http://b> "\UFFFFFFFF" .|}));
  check "\\u surrogate" true
    (Result.is_error (Turtle.parse {|<http://a> <http://b> "\uD800" .|}));
  check "\\U at limit still fine" true
    (Result.is_ok (Turtle.parse {|<http://a> <http://b> "\U0010FFFF" .|}))

let test_parse_file_errors () =
  let tmp = Filename.temp_file "shaclprov_test" ".ttl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "<http://a> <http://b>\n";
      close_out oc;
      match Turtle.parse_file tmp with
      | Ok _ -> Alcotest.fail "expected parse error"
      | Error e ->
          Alcotest.(check (option string)) "file recorded" (Some tmp) e.file;
          check "pp mentions file" true
            (String.length (Format.asprintf "%a" Turtle.pp_error e)
             > String.length tmp));
  match Turtle.parse_file "/nonexistent/input.ttl" with
  | Ok _ -> Alcotest.fail "expected Sys_error as Error"
  | Error e ->
      Alcotest.(check (option string)) "missing file recorded"
        (Some "/nonexistent/input.ttl") e.file

(* ---------------- the one-pass loader ------------------------------ *)

let lines g = List.map (Format.asprintf "%a" Triple.pp) (Graph.to_list g)

let check_lines what expected src =
  Alcotest.(check (list string)) what expected (lines (Turtle.parse_exn src))

(* The resolved-IRI tables are per binding: a rebound prefix or base
   must not answer with the IRI an earlier binding resolved. *)
let test_prefix_rebound () =
  check_lines "ex: means three namespaces in turn"
    [ "<http://a.org/s> <http://a.org/p> <http://a.org/o> .";
      "<http://b.org/s> <http://b.org/p> <http://b.org/o> .";
      "<http://c.org/s> <http://c.org/p> <http://c.org/o> ." ]
    "@prefix ex: <http://a.org/> .\nex:s ex:p ex:o .\n\
     @prefix ex: <http://b.org/> .\nex:s ex:p ex:o .\n\
     PREFIX ex: <http://c.org/>\nex:s ex:p ex:o .\n"

let test_base_changes () =
  check_lines "relative IRIs follow the current base"
    [ "<http://a.org/s> <http://a.org/p> <http://a.org/o> .";
      "<http://b.org/x/s> <http://b.org/x/p> <http://b.org/x/o> .";
      "<http://c.org/rel/s> <http://c.org/p> <http://c.org/rel/o> .";
      "<http://c.org/s> <http://c.org/p> <http://c.org/#o> ." ]
    "@base <http://a.org/> .\n<s> <p> <o> .\n\
     @base <http://b.org/x/> .\n<s> <p> <o> .\n\
     BASE <http://c.org/>\n<s> <p> <#o> .\n\
     @prefix r: <rel/> .\nr:s <p> r:o .\n";
  (* a namespace bound while no base is set stays relative, so its
     names resolve against whatever base is current when they occur *)
  check_lines "a relative namespace follows a later base"
    [ "<http://a.org/rel/x> <http://e.org/p> <http://a.org/rel/y> .";
      "<http://a.org/z> <http://e.org/p> <http://a.org/rel/x> .";
      "<rel/x> <http://e.org/p> <rel/y> ." ]
    "@prefix r: <rel/> .\nr:x <http://e.org/p> r:y .\n\
     @base <http://a.org/> .\nr:x <http://e.org/p> r:y .\n\
     <z> <http://e.org/p> r:x .\n"

let test_iriref_escapes () =
  check_lines "\\u and \\U escapes in IRIs"
    [ "<http://e.org/\xC3\xA9t\xC3\xA9> <http://e.org/p\xF0\x9F\x98\x80> \
       <http://e.org/xA> ." ]
    "<http://e.org/\\u00E9t\\u00e9> <http://e.org/p\\U0001F600> \
     <http://e.org/x\\u0041> .\n";
  (* an escaped and a plain spelling of one IRI are one term *)
  let g =
    Turtle.parse_exn
      "<http://e.org/\\u0061> <http://e.org/p> <http://e.org/a> .\n"
  in
  check_int "one node" 1 (Term.Set.cardinal (Graph.nodes g))

let test_pname_trailing_dot () =
  check_lines "a final dot ends the statement"
    [ "<http://e.org/a> <http://e.org/p> <http://e.org/b> .";
      "<http://e.org/c.d> <http://e.org/p> <http://e.org/e.f> .";
      "<http://e.org/g> <http://e.org/p> _:b1 ." ]
    "@prefix ex: <http://e.org/> .\nex:a ex:p ex:b.\n\
     ex:c.d ex:p ex:e.f.\nex:g ex:p _:b1.\n"

(* Error lines and messages, as the reader reported them before it
   loaded in one pass: after multi-line comments and long strings the
   line counts must not drift. *)
let error_table =
  [ ( "@prefix ex: <http://example.org/> .\n# one\n# two\n# three\n\
       ex:a ex:p ex:b ;\n  ex:q .\n",
      6, "expected object term" );
    ( "@prefix ex: <http://example.org/> .\n\
       ex:a ex:p \"\"\"l1\nl2\nl3\"\"\" ex:oops .\n",
      4, "expected '.'" );
    ( "@prefix ex: <http://example.org/> .\n# c\nex:a ex:p \"\"\"l1\nl2\n\n",
      6, "unterminated string literal" );
    ( "# c1\n# c2\n@prefix ex: <http://example.org/> .\n\
       ex:a ex:p \"abc\ndef\" .\n",
      4, "newline in string literal" );
    ( "@prefix ex: <http://example.org/> .\nex:a ex:p '''x\ny''' .\n\
       # tail\n<http://e.org/\\u00ZZ> ex:p ex:b .\n",
      5, "invalid \\u escape" );
    ( "# a\n#b\n\n# c\nfoo:x <http://e.org/p> <http://e.org/o> .\n",
      5, "unbound prefix \"foo\"" );
    ( "<http://e.org/s> <http://e.org/p> <http://e.org/o> # trailing\n\
       # more\n",
      3, "expected '.'" );
    ( "<http://e.org/s> <http://e.org/p> \"\"\"a\n\n\"\"\", \
       <http://e.org/a b> .\n",
      3, "invalid IRI \"http://e.org/a b\"" );
    ( "<http://e.org/s> <http://e.org/p> \"\"\"# not a comment\n\"\"\" ;\n\
       \  <http://e.org/q> ] .\n",
      3, "expected object term" ) ]

let test_error_lines () =
  List.iter
    (fun (src, line, message) ->
      match Turtle.parse src with
      | Ok _ -> Alcotest.failf "expected an error on %S" src
      | Error e ->
          Alcotest.(check (pair int string))
            (String.escaped src) (line, message) (e.line, e.message))
    error_table

(* [[]] and collection cells get fresh labels that no spelled label can
   equal: a document naming [_:genid0] itself used to have that node
   merged with its first anonymous one. *)
let test_fresh_labels_never_collide () =
  let spelled = Term.Blank "genid0" in
  let s = Term.iri "http://e.org/s" and q = Iri.of_string "http://e.org/q" in
  List.iter
    (fun src ->
      let g = Turtle.parse_exn src in
      check_int "triples" 3 (Graph.cardinal g);
      Alcotest.(check (list string)) "the spelled node keeps its one triple"
        [ "_:genid0 <http://e.org/p> <http://e.org/a> ." ]
        (List.map (Format.asprintf "%a" Triple.pp)
           (Graph.subject_triples g spelled));
      let anon = Term.Set.choose (Graph.objects g s q) in
      check "anonymous node is another node" false (Term.equal anon spelled);
      check_int "anonymous node has its own triple" 1
        (List.length (Graph.subject_triples g anon)))
    [ "@prefix ex: <http://e.org/> .\n\
       _:genid0 ex:p ex:a .\nex:s ex:q [ ex:r ex:b ] .\n";
      "@prefix ex: <http://e.org/> .\n\
       ex:s ex:q [ ex:r ex:b ] .\n_:genid0 ex:p ex:a .\n" ];
  (* a collection's cells too *)
  let g =
    Turtle.parse_exn
      "@prefix ex: <http://e.org/> .\n\
       ex:s ex:l ( ex:x ) .\n_:genid0 ex:p ex:a .\n"
  in
  check_int "cell and spelled node apart" 4 (Graph.cardinal g);
  (* documents that spell no [_:genid] label keep the [genid<N>] names *)
  check_lines "unchanged names"
    [ "<http://e.org/s> <http://e.org/q> _:genid0 .";
      "_:genid0 <http://e.org/r> <http://e.org/b> ." ]
    "@prefix ex: <http://e.org/> .\nex:s ex:q [ ex:r ex:b ] .\n"

let test_loaded_frozen () =
  let g =
    Turtle.parse_exn
      "@prefix ex: <http://e.org/> .\nex:a ex:p ex:b , \"x\"@en ; ex:q [] .\n"
  in
  check "parsed graph is frozen" true (Graph.frozen g);
  check "equal to the list-built graph" true
    (Graph.equal g (Graph.of_list (Graph.to_list g)));
  (* no triple, no store: the empty graph, as [freeze] leaves it *)
  List.iter
    (fun src ->
      let g = Turtle.parse_exn src in
      check "empty" true (Graph.is_empty g);
      check "empty stays unfrozen" false (Graph.frozen g))
    [ ""; "# nothing\n"; "@prefix ex: <http://e.org/> ."; "[] ." ];
  (* an empty [[]] statement interns nothing *)
  let g = Turtle.parse_exn "[] .\n<http://e.org/s> <http://e.org/p> 1 .\n" in
  match Graph.store g with
  | None -> Alcotest.fail "expected a store"
  | Some st -> check_int "three terms" 3 (Store.n_terms st)

let test_roundtrip_sample () =
  let src =
    {|@prefix ex: <http://example.org/> .
      ex:a ex:p ex:b ; ex:q 5 .
      ex:b ex:name "b"@en .
    |}
  in
  let g = Turtle.parse_exn src in
  let g' = Turtle.parse_exn (Turtle.to_string g) in
  Alcotest.check Tgen.graph_testable "roundtrip" g g'

(* Serializer roundtrip over random graphs (blank-node free vocabulary,
   so graph equality is plain set equality). *)
let prop_roundtrip =
  QCheck.Test.make ~name:"turtle serialize/parse roundtrip" ~count:100
    Tgen.arbitrary_graph
    (fun g -> Graph.equal g (Turtle.parse_exn (Turtle.to_string g)))

(* Fuzz: [parse] is total — arbitrary byte strings, and valid documents
   damaged at one position, always come back as [Ok] or [Error], never
   as an exception. *)
let gen_mutated_doc =
  let open QCheck.Gen in
  let* g = Tgen.gen_graph in
  let doc = Turtle.to_string g in
  if String.length doc = 0 then return doc
  else
    let* i = int_range 0 (String.length doc - 1) in
    let* c = char in
    return (String.mapi (fun j d -> if j = i then c else d) doc)

let gen_hostile =
  QCheck.Gen.oneof
    [ QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_range 0 80);
      gen_mutated_doc ]

let prop_parse_total =
  QCheck.Test.make ~name:"parse never raises on arbitrary bytes" ~count:1000
    (QCheck.make gen_hostile ~print:String.escaped)
    (fun src ->
      match Turtle.parse src with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "parse raised %s on %S"
            (Printexc.to_string e) src)

(* ---------------- writer = the Format oracle ------------------------ *)

(* Terms chosen for the writer's corner cases: IRIs in and outside the
   prefix tables below, local names [local_name_ok] rejects (a leading
   or trailing dot, '%', '/'), an IRI equal to a namespace, IRIs and
   literals longer than [Format]'s margin, blank nodes, escapes,
   language tags, and datatypes (never shortened, xsd:string left
   implicit). *)
let w_iris =
  List.map Iri.of_string
    [ "http://example.org/a";
      "http://example.org/b-1_x";
      "http://example.org/";
      "http://example.org/trail.";
      "http://example.org/.lead";
      "http://example.org/x%20y";
      "http://example.org/a/b";
      "http://example.org/sub/c";
      "http://example.org/sub/d.e";
      "http://example.org/" ^ String.make 90 'l';
      "http://other.org/z";
      "urn:x:1";
      "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
      "http://www.w3.org/2001/XMLSchema#integer" ]

let w_blanks = List.map Term.blank [ "b0"; "genid1"; "x-y" ]

let w_literals =
  let dt d lex = Term.Literal (Literal.make ~datatype:(Iri.of_string d) lex) in
  [ Term.str "plain";
    Term.str "quote \" and \\ backslash";
    Term.str "new\nline\ttab\rcr";
    Term.str "";
    Term.str "ünï©ødé \xF0\x9F\x90\xAB";
    Term.str (String.make 120 'w' ^ " \"long\"");
    Term.Literal (Literal.lang_string "hello" ~lang:"en");
    Term.Literal (Literal.lang_string "x\ny" ~lang:"en-GB");
    Term.int 5;
    Term.bool true;
    dt "http://example.org/dt" "v 1";
    dt "http://www.w3.org/2001/XMLSchema#string" "explicit";
    dt "http://www.w3.org/2001/XMLSchema#decimal" "2.50" ]

(* Custom and empty tables, an empty prefix name, a namespace nested in
   another (the more recent binding wins), and a name with a ':' (which
   keys its directive by the part before it). *)
let w_prefixes =
  Namespace.
    [ default;
      empty;
      add "" "http://example.org/" empty;
      add "s" "http://example.org/sub/" default;
      add "o" "http://other.org/" (add "u" "urn:x:" default);
      add "ex" "http://other.org/" default;
      add "a:b" "http://other.org/" empty ]

let gen_writer_case =
  let open QCheck.Gen in
  let iri_term = map (fun i -> Term.Iri i) (oneofl w_iris) in
  let subject = frequency [ 3, iri_term; 1, oneofl w_blanks ] in
  let object_ =
    frequency [ 2, iri_term; 1, oneofl w_blanks; 3, oneofl w_literals ]
  in
  pair (oneofl w_prefixes)
    (list_size (int_range 0 30)
       (map3 Triple.make subject (oneofl w_iris) object_))

let print_writer_case (_, l) =
  String.concat "\n" (List.map (Format.asprintf "%a" Triple.pp) l)

(* One document from the builder maps, the frozen store, an engine row
   view (a subset of a larger store's rows), a row view of every row,
   and a frozen view: each equal to the old writer's bytes. *)
let prop_writer_oracle =
  QCheck.Test.make ~name:"writer = Format oracle on every graph form"
    ~count:500
    (QCheck.make gen_writer_case ~print:print_writer_case)
    (fun (prefixes, l) ->
      let g = Graph.of_list l in
      let expected = Format_writer.to_string ~prefixes g in
      let view = Tgen.engine_view l in
      let forms =
        [ "builder", g;
          "frozen", Graph.freeze g;
          "row view", view;
          "full row view", Tgen.engine_view ~noise:0 l;
          "frozen row view", Graph.freeze view ]
      in
      List.for_all
        (fun (form, g') ->
          let got = Turtle.to_string ~prefixes g' in
          String.equal got expected
          || QCheck.Test.fail_reportf "%s form printed@.%s@.expected@.%s" form
               got expected)
        forms)

let test_writer_empty () =
  Alcotest.(check string) "empty graph" "" (Turtle.to_string Graph.empty);
  Alcotest.(check string) "oracle agrees" (Format_writer.to_string Graph.empty)
    (Turtle.to_string Graph.empty)

let suite =
  [ "basic triples", `Quick, test_basic;
    "literal forms", `Quick, test_literals;
    "object lists and 'a'", `Quick, test_object_lists_and_a;
    "blank nodes", `Quick, test_blank_nodes;
    "collections", `Quick, test_collections;
    "comments and strings", `Quick, test_comments_and_strings;
    "parse errors", `Quick, test_errors;
    "hostile inputs stay errors", `Quick, test_hostile_inputs;
    "parse_file errors carry the filename", `Quick, test_parse_file_errors;
    "roundtrip sample", `Quick, test_roundtrip_sample;
    "prefix rebound mid-document", `Quick, test_prefix_rebound;
    "@base changes", `Quick, test_base_changes;
    "\\u escapes in IRIREFs", `Quick, test_iriref_escapes;
    "pnames with a trailing dot", `Quick, test_pname_trailing_dot;
    "error lines after comments and long strings", `Quick, test_error_lines;
    "fresh blank labels never collide", `Quick,
    test_fresh_labels_never_collide;
    "parse returns a frozen graph", `Quick, test_loaded_frozen;
    "writer: the empty graph", `Quick, test_writer_empty ]

let props = [ prop_roundtrip; prop_parse_total; prop_writer_oracle ]
