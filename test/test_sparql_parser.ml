(* The SPARQL text parser and its execution front-end. *)

open Rdf
open Sparql

let ex local = Term.iri ("http://example.org/" ^ local)
let exi local = Iri.of_string ("http://example.org/" ^ local)
let p = exi "p"
let q = exi "q"

let name_prop = Iri.of_string "http://example.org/name"

let g =
  Graph.of_list
    [ Triple.make (ex "a") p (ex "b");
      Triple.make (ex "b") p (ex "c");
      Triple.make (ex "a") q (Term.int 1);
      Triple.make (ex "b") q (Term.int 2);
      Triple.make (ex "c") q (Term.int 3);
      Triple.make (ex "a") Vocab.Rdf.type_ (ex "Widget");
      Triple.make (ex "c") name_prop
        (Term.Literal (Literal.lang_string "sea" ~lang:"en")) ]

let run src =
  match Parser.run_string g src with
  | Ok answer -> answer
  | Error e -> Alcotest.failf "parse/run failed: %a" Parser.pp_error e

let bindings src =
  match run src with
  | Parser.Bindings rows -> rows
  | _ -> Alcotest.fail "expected bindings"

let graph_of src =
  match run src with
  | Parser.Graph result -> result
  | _ -> Alcotest.fail "expected a graph"

let boolean src =
  match run src with
  | Parser.Boolean b -> b
  | _ -> Alcotest.fail "expected a boolean"

let check_int = Alcotest.(check int)
let check = Alcotest.(check bool)

let test_select_basic () =
  check_int "simple select" 2
    (List.length (bindings "SELECT ?x ?y WHERE { ?x ex:p ?y }"));
  check_int "select star" 2
    (List.length (bindings "SELECT * WHERE { ?x ex:p ?y }"));
  check_int "join via shared var" 1
    (List.length (bindings "SELECT ?x WHERE { ?x ex:p ?y . ?y ex:p ?z }"));
  check_int "constant terms" 1
    (List.length (bindings "SELECT ?y WHERE { ex:a ex:p ?y }"));
  check_int "a keyword" 1
    (List.length (bindings "SELECT ?x WHERE { ?x a ex:Widget }"))

let test_semicolon_comma () =
  check_int "predicate-object list" 1
    (List.length (bindings "SELECT ?x WHERE { ?x ex:p ex:b ; ex:q 1 }"));
  (* object lists are conjunctive: no node has both q values *)
  check_int "object list (conjunctive)" 0
    (List.length (bindings "SELECT ?x WHERE { ?x ex:q 1 , 2 }"));
  check_int "object list (satisfied)" 1
    (List.length (bindings "SELECT ?x WHERE { ?x ex:p ex:b , ex:b }"))

let test_paths () =
  check_int "star path" 3
    (List.length (bindings "SELECT ?y WHERE { ex:a ex:p* ?y }"));
  check_int "sequence path" 1
    (List.length (bindings "SELECT ?y WHERE { ex:a ex:p/ex:p ?y }"));
  check_int "inverse path" 1
    (List.length (bindings "SELECT ?x WHERE { ex:b ^ex:p ?x }"));
  check_int "alternative path" 2
    (List.length (bindings "SELECT ?y WHERE { ex:b (ex:p|ex:q) ?y . }"))

let test_filters () =
  check_int "numeric filter" 2
    (List.length (bindings "SELECT ?x WHERE { ?x ex:q ?n FILTER (?n > 1) }"));
  check_int "and filter" 1
    (List.length
       (bindings "SELECT ?x WHERE { ?x ex:q ?n FILTER (?n > 1 && ?n < 3) }"));
  check_int "in filter" 2
    (List.length
       (bindings "SELECT ?x WHERE { ?x ex:q ?n FILTER (?n IN (1, 3)) }"));
  check_int "isIRI" 2
    (List.length (bindings "SELECT ?x WHERE { ?x ex:p ?y FILTER isIRI(?y) }"));
  check_int "langMatches" 1
    (List.length
       (bindings
          {|SELECT ?x WHERE { ?x ex:name ?l FILTER langMatches(LANG(?l), "en") }|}));
  (* only c lacks an outgoing p edge *)
  check_int "not exists" 1
    (List.length
       (bindings
          "SELECT ?x WHERE { ?x ex:q ?n FILTER NOT EXISTS { ?x ex:p ?y } }"))

let test_optional_union_minus () =
  let rows =
    bindings "SELECT ?x ?z WHERE { ?x ex:q ?n OPTIONAL { ?x ex:p ?z } }"
  in
  check_int "optional keeps all" 3 (List.length rows);
  check_int "optional binds some" 2
    (List.length (List.filter (fun b -> Binding.mem "z" b) rows));
  check_int "union" 5
    (List.length
       (bindings
          "SELECT ?x WHERE { { ?x ex:p ?y } UNION { ?x ex:q ?n } }"));
  check_int "minus" 1
    (List.length
       (bindings "SELECT ?x WHERE { ?x ex:q ?n MINUS { ?x ex:p ?y } }"))

let test_bind_distinct () =
  let rows =
    bindings "SELECT DISTINCT ?k WHERE { ?x ex:p ?y BIND(ex:c AS ?k) }"
  in
  check_int "bind+distinct" 1 (List.length rows);
  check "bound to constant" true
    (match rows with
     | [ b ] -> Binding.find "k" b = Some (ex "c")
     | _ -> false)

let test_construct_ask () =
  let result =
    graph_of "CONSTRUCT { ?y ex:rev ?x } WHERE { ?x ex:p ?y }"
  in
  check_int "construct size" 2 (Graph.cardinal result);
  check "reversed triple" true
    (Graph.mem_spo (ex "b") (exi "rev") (ex "a") result);
  let image = graph_of "CONSTRUCT WHERE { ?x ex:p ?y }" in
  check_int "construct where" 2 (Graph.cardinal image);
  check "ask true" true (boolean "ASK { ex:a ex:p ex:b }");
  check "ask false" false (boolean "ASK { ex:b ex:p ex:a }")

let test_prefixes () =
  let rows =
    bindings
      {|PREFIX my: <http://example.org/>
        SELECT ?y WHERE { my:a my:p ?y }|}
  in
  check_int "custom prefix" 1 (List.length rows)

let test_errors () =
  let bad src = Result.is_error (Parser.parse src) in
  check "unterminated group" true (bad "SELECT ?x WHERE { ?x ex:p ?y ");
  check "missing where" true (bad "SELECT ?x { ?x ex:p ?y }");
  check "unknown function" true
    (bad "SELECT ?x WHERE { ?x ex:p ?y FILTER frob(?y) }");
  check "unbound prefix" true (bad "SELECT ?x WHERE { ?x nope:p ?y }");
  check "trailing garbage" true (bad "ASK { ?x ex:p ?y } garbage")

(* A malformed IRI is a positioned error at its token, not an
   exception from the IRI constructor. *)
let test_invalid_iri () =
  let error_at src =
    match Parser.parse src with
    | Error e -> Some e.position
    | Ok _ -> None
  in
  Alcotest.(check (option int)) "bare bad IRI" (Some 0) (error_at "<||>");
  Alcotest.(check (option int)) "bad IRI in a pattern" (Some 20)
    (error_at "SELECT * WHERE { ?x <a b> ?y }");
  Alcotest.(check (option int)) "bad PREFIX IRI" (Some 11)
    (error_at "PREFIX my: <a b> ASK { ?x my:p ?y }");
  let namespaces = Namespace.add "bad" "http://example.org/a b#" Namespace.default in
  Alcotest.(check (option int)) "prefixed name expanding to a bad IRI"
    (Some 9)
    (match Parser.parse ~namespaces "ASK { ?x bad:p ?y }" with
     | Error e -> Some e.position
     | Ok _ -> None);
  check "empty language tag" true
    (Result.is_error (Parser.parse {|ASK { ?x ex:p "s"@ }|}))

(* Fuzz: [parse] is total on raw bytes and on soups of SPARQL tokens. *)
let sparql_tokens =
  [ "SELECT"; "CONSTRUCT"; "ASK"; "WHERE"; "DISTINCT"; "PREFIX"; "BASE";
    "FILTER"; "OPTIONAL"; "UNION"; "MINUS"; "BIND"; "AS"; "a"; "*"; "?x";
    "$y"; "{"; "}"; "("; ")"; "."; ";"; ","; "/"; "|"; "^"; "+"; "?"; "!";
    ">="; "<="; "<"; ">"; "="; "!="; "&&"; "||"; "ex:p"; "my:"; "nope:q";
    "<http://example.org/p>"; "<a b>"; "<||>"; "<>"; {|"s"|}; {|"open|};
    "@"; "@en"; "^^"; "123"; "-7"; "1.5e3"; "99999999999999999999999";
    "_:b"; "_:"; "true"; "#c\n"; "\xff" ]

let prop_parse_total =
  QCheck.Test.make ~name:"parse never raises on arbitrary bytes" ~count:1000
    (QCheck.make (Test_shape.gen_hostile sparql_tokens) ~print:String.escaped)
    (fun src ->
      match Parser.parse src with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "parse raised %s on %S"
            (Printexc.to_string e) src)

(* Parsing the text rendering of generated algebra is not guaranteed (the
   pretty-printer emits subselects), but simple patterns round-trip. *)
let test_eval_matches_algebra () =
  let parsed = bindings "SELECT ?x ?y WHERE { ?x ex:p ?y . ?y ex:q ?n FILTER (?n >= 2) }" in
  let direct =
    Sparql.Eval.eval g
      Sparql.Algebra.(
        Project
          ( [ "x"; "y" ],
            Filter
              ( E_ge (E_var "n", E_term (Term.int 2)),
                BGP
                  [ tp (Var "x") (Pred p) (Var "y");
                    tp (Var "y") (Pred q) (Var "n") ] ) ))
  in
  check_int "same cardinality" (List.length direct) (List.length parsed)

let suite =
  [ "select basics", `Quick, test_select_basic;
    "semicolons and commas", `Quick, test_semicolon_comma;
    "property paths", `Quick, test_paths;
    "filters", `Quick, test_filters;
    "optional, union, minus", `Quick, test_optional_union_minus;
    "bind and distinct", `Quick, test_bind_distinct;
    "construct and ask", `Quick, test_construct_ask;
    "prefix declarations", `Quick, test_prefixes;
    "parse errors", `Quick, test_errors;
    "parsed equals hand-built", `Quick, test_eval_matches_algebra;
    "invalid IRIs are parse errors", `Quick, test_invalid_iri ]

let props = [ prop_parse_total ]
