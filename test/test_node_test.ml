(* Node tests (the Ω of the paper): kinds, datatypes, ranges, strings. *)

open Rdf
open Shacl

let check = Alcotest.(check bool)
let iri = Term.iri "http://example.org/thing"
let blank = Term.blank "b0"
let str s = Term.str s
let int n = Term.int n
let sat t term = Node_test.satisfies t term

let test_kinds () =
  let open Node_test in
  check "iri kind" true (sat (Node_kind Iri_kind) iri);
  check "iri is not literal" false (sat (Node_kind Literal_kind) iri);
  check "blank kind" true (sat (Node_kind Blank_kind) blank);
  check "literal kind" true (sat (Node_kind Literal_kind) (str "x"));
  check "blank or iri" true (sat (Node_kind Blank_or_iri) blank);
  check "blank or iri rejects literal" false
    (sat (Node_kind Blank_or_iri) (str "x"));
  check "iri or literal" true (sat (Node_kind Iri_or_literal) (str "x"));
  check "blank or literal" true (sat (Node_kind Blank_or_literal) blank)

let test_datatype () =
  let open Node_test in
  check "integer datatype" true (sat (Datatype Vocab.Xsd.integer) (int 3));
  check "string is not integer" false (sat (Datatype Vocab.Xsd.integer) (str "3"));
  check "langString datatype" true
    (sat (Datatype Vocab.Rdf.lang_string)
       (Term.Literal (Literal.lang_string "x" ~lang:"en")));
  check "iri has no datatype" false (sat (Datatype Vocab.Xsd.string) iri)

let test_ranges () =
  let open Node_test in
  let lit n = Literal.int n in
  check "min inclusive equal" true (sat (Min_inclusive (lit 3)) (int 3));
  check "min exclusive equal" false (sat (Min_exclusive (lit 3)) (int 3));
  check "min exclusive above" true (sat (Min_exclusive (lit 3)) (int 4));
  check "max inclusive equal" true (sat (Max_inclusive (lit 3)) (int 3));
  check "max exclusive equal" false (sat (Max_exclusive (lit 3)) (int 3));
  check "incomparable fails" false (sat (Min_inclusive (lit 3)) (str "10"));
  check "iri fails range" false (sat (Min_inclusive (lit 3)) iri);
  (* decimal vs integer are comparable *)
  check "decimal above integer bound" true
    (sat (Min_exclusive (lit 3))
       (Term.Literal (Literal.make ~datatype:Vocab.Xsd.decimal "3.5")))

let test_lengths () =
  let open Node_test in
  check "min length on string" true (sat (Min_length 3) (str "abcd"));
  check "min length exact" true (sat (Min_length 4) (str "abcd"));
  check "min length too short" false (sat (Min_length 5) (str "abcd"));
  check "max length" true (sat (Max_length 4) (str "abcd"));
  check "length counts code points" true
    (sat (Max_length 2) (str "\xc3\xa9\xc3\xa9"));  (* "éé": 4 bytes, 2 chars *)
  check "length applies to IRIs" true (sat (Min_length 5) iri);
  check "length fails on blanks" false (sat (Min_length 0) blank)

let test_patterns () =
  let open Node_test in
  let pat ?flags regex = Pattern { regex; flags } in
  check "substring match" true (sat (pat "bc") (str "abcd"));
  check "anchored start" true (sat (pat "^ab") (str "abcd"));
  check "anchored start fails" false (sat (pat "^bc") (str "abcd"));
  check "anchored end" true (sat (pat "cd$") (str "abcd"));
  check "character class" true (sat (pat "[0-9]+") (str "a42b"));
  check "digit escape" true (sat (pat {|\d\d|}) (str "a42b"));
  check "alternation" true (sat (pat "cat|dog") (str "hotdog"));
  check "star" true (sat (pat "ab*c") (str "xacx"));
  check "case sensitive by default" false (sat (pat "ABC") (str "abc"));
  check "case insensitive flag" true (sat (pat ~flags:"i" "ABC") (str "abc"));
  check "pattern applies to IRI" true (sat (pat "example") iri);
  check "pattern fails on blank" false (sat (pat ".*") blank)

(* Compiled patterns are cached per (regex, case-insensitivity) in a
   bounded per-domain table: a compile cached under one flag setting
   must not answer for the other, and emptying a full table must not
   change a verdict. *)
let test_pattern_cache () =
  let open Node_test in
  let pat ?flags regex = Pattern { regex; flags } in
  let hello = str "hello" in
  for _ = 1 to 3 do
    check "i flag folds case" true (sat (pat ~flags:"i" "^HELLO$") hello);
    check "no flag keeps case" false (sat (pat "^HELLO$") hello);
    check "flags without i keep case" false
      (sat (pat ~flags:"m" "^HELLO$") hello);
    check "i flag, unanchored" true (sat (pat ~flags:"i" "LL") hello);
    check "unanchored inside" true (sat (pat "ell") hello);
    check "start anchor rejects" false (sat (pat "^ell") hello);
    check "end anchor rejects" false (sat (pat "ell$") hello);
    check "both anchors" true (sat (pat "^h.*o$") hello)
  done;
  (* many more distinct patterns than the table holds, twice over *)
  for _ = 1 to 2 do
    for k = 0 to 199 do
      let r = Printf.sprintf "^v%d$" k in
      check "fresh pattern" true (sat (pat r) (str (Printf.sprintf "v%d" k)));
      check "fresh pattern rejects" false
        (sat (pat r) (str (Printf.sprintf "v%dx" k)))
    done
  done;
  let on_domain () =
    List.for_all
      (fun k ->
        let r = Printf.sprintf "X%d$" k and s = str (Printf.sprintf "ax%d" k) in
        sat (pat ~flags:"i" r) s && not (sat (pat r) s))
      (List.init 100 Fun.id)
  in
  let domains = List.init 2 (fun _ -> Domain.spawn on_domain) in
  check "concurrent domains" true (List.for_all Domain.join domains)

(* The survey's two [sh:pattern] shapes: every generated value matches,
   and one value that misses the pattern is the only violation. *)
let test_survey_patterns () =
  let g = Workload.Kg.generate ~seed:1 ~individuals:300 in
  let entry description =
    List.find
      (fun (e : Workload.Bench_shapes.entry) -> e.description = description)
      Workload.Bench_shapes.all
  in
  List.iter
    (fun (description, prop, bad) ->
      let schema = Workload.Bench_shapes.schema_of (entry description) in
      let report = Validate.validate schema g in
      Alcotest.(check bool) (description ^ ": has targets") true
        (report.results <> []);
      Alcotest.(check bool) (description ^ ": conforms") true
        report.conforms;
      let focus = (List.hd report.results).focus in
      let g' =
        Graph.add focus (Iri.of_string (Workload.Kg.ns ^ prop)) (str bad) g
      in
      let report' = Validate.validate schema g' in
      Alcotest.(check int)
        (description ^ ": one violation")
        1
        (List.length (Validate.violations report')))
    [ "emails match a mail pattern", "email", "user@mail.example.org";
      "descriptions mention their entity", "description", "a summary" ]

let test_language () =
  let open Node_test in
  let en = Term.Literal (Literal.lang_string "hi" ~lang:"en") in
  let en_gb = Term.Literal (Literal.lang_string "tea" ~lang:"en-GB") in
  check "exact language" true (sat (Language "en") en);
  check "subtag matches range" true (sat (Language "en") en_gb);
  check "wildcard" true (sat (Language "*") en);
  check "mismatch" false (sat (Language "fr") en);
  check "plain literal has no language" false (sat (Language "en") (str "hi"));
  check "wildcard needs a tag" false (sat (Language "*") (str "hi"))

let test_printer_parser_agree () =
  (* Node tests printed by Shape.pp parse back through Shape_syntax. *)
  List.iter
    (fun t ->
      let s = Shape.Test t in
      let printed = Shape_syntax.print s in
      match Shape_syntax.parse printed with
      | Ok s' -> check printed true (Shape.equal s s')
      | Error e ->
          Alcotest.failf "cannot reparse %s: %a" printed Shape_syntax.pp_error e)
    Node_test.
      [ Node_kind Iri_kind;
        Datatype Vocab.Xsd.date_time;
        Min_exclusive (Literal.int 0);
        Max_inclusive (Literal.make ~datatype:Vocab.Xsd.decimal "9.5");
        Min_length 2;
        Max_length 64;
        Pattern { regex = "^a+b?$"; flags = Some "i" };
        Language "en" ]

let suite =
  [ "node kinds", `Quick, test_kinds;
    "datatypes", `Quick, test_datatype;
    "value ranges", `Quick, test_ranges;
    "string lengths", `Quick, test_lengths;
    "patterns", `Quick, test_patterns;
    "pattern cache: flags, anchors, bound, domains", `Quick, test_pattern_cache;
    "survey pattern shapes keep their verdicts", `Quick, test_survey_patterns;
    "language ranges", `Quick, test_language;
    "printer/parser agreement", `Quick, test_printer_parser_agree ]

let props = []
