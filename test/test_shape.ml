(* Shape AST: NNF, smart constructors, syntax roundtrip. *)

open Shacl

let ex local = "http://example.org/" ^ local
let p = Rdf.Iri.of_string (ex "p")
let path_p = Rdf.Path.Prop p

let check = Alcotest.(check bool)
let check_shape = Alcotest.check Tgen.shape_testable

let test_nnf_quantifiers () =
  check_shape "¬≥n+1 ≡ ≤n"
    (Shape.Le (1, path_p, Shape.Top))
    (Shape.nnf (Shape.Not (Shape.Ge (2, path_p, Shape.Top))));
  check_shape "¬≤n ≡ ≥n+1"
    (Shape.Ge (3, path_p, Shape.Top))
    (Shape.nnf (Shape.Not (Shape.Le (2, path_p, Shape.Top))));
  check_shape "¬≥0 ≡ ≤-1" (Shape.Le (-1, path_p, Shape.Top))
    (Shape.nnf (Shape.Not (Shape.Ge (0, path_p, Shape.Top))));
  check_shape "¬∀ ≡ ≥1 ¬"
    (Shape.Ge (1, path_p, Shape.Not (Shape.Has_value (Rdf.Term.iri (ex "c")))))
    (Shape.nnf
       (Shape.Not (Shape.Forall (path_p, Shape.Has_value (Rdf.Term.iri (ex "c"))))))

let test_nnf_de_morgan () =
  let a = Shape.Has_value (Rdf.Term.iri (ex "a")) in
  let b = Shape.Has_value (Rdf.Term.iri (ex "b")) in
  check_shape "¬(a ∧ b)"
    (Shape.Or [ Shape.Not a; Shape.Not b ])
    (Shape.nnf (Shape.Not (Shape.And [ a; b ])));
  check_shape "double negation" a (Shape.nnf (Shape.Not (Shape.Not a)))

let test_smart_constructors () =
  check_shape "and_ flattens"
    (Shape.And
       [ Shape.Has_value (Rdf.Term.iri (ex "a"));
         Shape.Has_value (Rdf.Term.iri (ex "b"));
         Shape.Has_value (Rdf.Term.iri (ex "c")) ])
    (Shape.and_
       [ Shape.And
           [ Shape.Has_value (Rdf.Term.iri (ex "a"));
             Shape.Has_value (Rdf.Term.iri (ex "b")) ];
         Shape.Top;
         Shape.Has_value (Rdf.Term.iri (ex "c")) ]);
  check_shape "and_ with bottom" Shape.Bottom
    (Shape.and_ [ Shape.Top; Shape.Bottom ]);
  check_shape "or_ with top" Shape.Top (Shape.or_ [ Shape.Bottom; Shape.Top ]);
  check_shape "or_ singleton unwraps"
    (Shape.Has_value (Rdf.Term.iri (ex "a")))
    (Shape.or_ [ Shape.Has_value (Rdf.Term.iri (ex "a")) ]);
  check_shape "not_ collapses" (Shape.Has_value (Rdf.Term.iri (ex "a")))
    (Shape.not_ (Shape.Not (Shape.Has_value (Rdf.Term.iri (ex "a")))))

let test_is_nnf () =
  check "atom is nnf" true (Shape.is_nnf (Shape.Eq (Shape.Id, p)));
  check "¬atom is nnf" true (Shape.is_nnf (Shape.Not (Shape.Eq (Shape.Id, p))));
  check "¬∧ is not nnf" false
    (Shape.is_nnf (Shape.Not (Shape.And [ Shape.Top ])));
  check "nested ok" true
    (Shape.is_nnf
       (Shape.Ge (1, path_p, Shape.Not (Shape.Closed Rdf.Iri.Set.empty))))

(* closed(P) compares P as a set: the same four properties added in
   opposite orders give differently balanced trees. *)
let test_closed_equal () =
  let ps = List.map (fun l -> Rdf.Iri.of_string (ex l)) [ "a"; "b"; "c"; "d" ] in
  let up = Rdf.Iri.Set.of_list ps and down = Rdf.Iri.Set.of_list (List.rev ps) in
  check "tree layouts differ" true (Stdlib.compare up down <> 0);
  check "equal" true (Shape.equal (Shape.Closed up) (Shape.Closed down));
  check "compare = 0" true
    (Shape.compare (Shape.Closed up) (Shape.Closed down) = 0);
  check "equal under structure" true
    (Shape.equal
       (Shape.Forall (path_p, Shape.Not (Shape.Closed up)))
       (Shape.Forall (path_p, Shape.Not (Shape.Closed down))));
  check "different sets differ" false
    (Shape.equal (Shape.Closed up) (Shape.Closed (Rdf.Iri.Set.of_list [ p ])))

let test_parse_examples () =
  let parse = Shape_syntax.parse_exn in
  (* The paper's WorkshopShape (Example 2.2) *)
  let workshop =
    parse ">=1 ex:author . >=1 rdf:type/rdfs:subClassOf* . hasValue(ex:Student)"
  in
  (match workshop with
   | Shape.Ge (1, Rdf.Path.Prop _, Shape.Ge (1, Rdf.Path.Seq (_, Rdf.Path.Star _), Shape.Has_value _)) ->
       ()
   | s -> Alcotest.failf "unexpected parse: %a" Shape.pp s);
  (* happy-at-work (Example 2.2) *)
  (match parse "!disj(ex:friend, ex:colleague)" with
   | Shape.Not (Shape.Disj (Shape.Path (Rdf.Path.Prop _), _)) -> ()
   | s -> Alcotest.failf "unexpected parse: %a" Shape.pp s);
  (* self-loop shapes *)
  (match parse "eq(id, ex:p)" with
   | Shape.Eq (Shape.Id, _) -> ()
   | s -> Alcotest.failf "unexpected parse: %a" Shape.pp s);
  (* operators and precedence: & binds tighter than | *)
  (match parse "top & bottom | top" with
   | Shape.Or [ Shape.And [ Shape.Top; Shape.Bottom ]; Shape.Top ] -> ()
   | s -> Alcotest.failf "unexpected precedence: %a" Shape.pp s);
  (* quantifier body binds tightest *)
  (match parse ">=1 ex:p . top & bottom" with
   | Shape.And [ Shape.Ge (1, _, Shape.Top); Shape.Bottom ] -> ()
   | s -> Alcotest.failf "unexpected body scope: %a" Shape.pp s)

let test_parse_tests () =
  let parse = Shape_syntax.parse_exn in
  (match parse "test(datatype = xsd:integer)" with
   | Shape.Test (Node_test.Datatype _) -> ()
   | s -> Alcotest.failf "unexpected: %a" Shape.pp s);
  (match parse {|test(pattern = "^ab+", flags = "i")|} with
   | Shape.Test (Node_test.Pattern { regex = "^ab+"; flags = Some "i" }) -> ()
   | s -> Alcotest.failf "unexpected: %a" Shape.pp s);
  (match parse {|test(minInclusive = 5)|} with
   | Shape.Test (Node_test.Min_inclusive _) -> ()
   | s -> Alcotest.failf "unexpected: %a" Shape.pp s);
  (match parse {|closed(ex:p, ex:q)|} with
   | Shape.Closed s when Rdf.Iri.Set.cardinal s = 2 -> ()
   | s -> Alcotest.failf "unexpected: %a" Shape.pp s)

let test_parse_errors () =
  check "unbalanced" true (Result.is_error (Shape_syntax.parse "(top"));
  check "trailing" true (Result.is_error (Shape_syntax.parse "top top"));
  check "unknown keyword" true (Result.is_error (Shape_syntax.parse "frobnicate(top)"));
  check "bad count" true (Result.is_error (Shape_syntax.parse ">= ex:p . top"))

(* An integer past [max_int] is a positioned error, not an exception. *)
let test_parse_int_overflow () =
  let src = ">= 99999999999999999999 ex:p . top" in
  (match Shape_syntax.parse src with
   | Error { position = 3; message = "integer out of range" } -> ()
   | Error e -> Alcotest.failf "unexpected error: %a" Shape_syntax.pp_error e
   | Ok s -> Alcotest.failf "unexpected shape: %a" Shape.pp s);
  check "overflowing maxLength" true
    (Result.is_error
       (Shape_syntax.parse "test(maxLength = 123456789012345678901234567890)"));
  check "overflow inside a path" true
    (Result.is_error (Shape_syntax.parse_path "ex:p/99999999999999999999"));
  check "empty language tag" true
    (Result.is_error (Shape_syntax.parse {|hasValue("x"@)|}))

(* Fuzz: [parse] and [parse_path] are total — raw bytes, and soups of
   the syntax's own tokens (which reach far deeper into the parser than
   random bytes do), always come back as [Ok] or [Error]. *)
let shape_tokens =
  [ ">="; "<="; "0"; "1"; "42"; "99999999999999999999"; "ex:p"; "rdf:type";
    "nope:p"; "<http://example.org/p>"; "<a b>"; "<>"; "<||>"; "<"; ">";
    "."; "("; ")"; "|"; "&"; "!"; ","; "="; "/"; "*"; "?"; "+"; "^"; "^^";
    "top"; "bottom"; "forall"; "id"; "hasValue"; "shape"; "test"; "kind";
    "IRI"; "datatype"; "minLength"; "pattern"; "flags"; "lang"; "eq"; "disj";
    "closed"; "lessThan"; "uniqueLang"; "true"; {|"x"|}; {|"un|}; "@"; "@en";
    "_:b"; "_:"; "#c\n"; "\xff" ]

let gen_soup tokens =
  let open QCheck.Gen in
  let* words = list_size (int_range 0 25) (oneofl tokens) in
  let* seps = list_repeat (List.length words) (oneofl [ ""; " "; "\n" ]) in
  return (String.concat "" (List.map2 ( ^ ) words seps))

let gen_hostile tokens =
  QCheck.Gen.oneof
    [ QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_range 0 80);
      gen_soup tokens ]

let total ~name parse =
  QCheck.Test.make ~name ~count:1000
    (QCheck.make (gen_hostile shape_tokens) ~print:String.escaped)
    (fun src ->
      match parse src with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) src)

let prop_parse_total =
  total ~name:"parse never raises on arbitrary bytes" (fun src ->
      Result.map ignore (Shape_syntax.parse src))

let prop_parse_path_total =
  total ~name:"parse_path never raises on arbitrary bytes" (fun src ->
      Result.map ignore (Shape_syntax.parse_path src))

(* print-then-parse is the identity *)
let prop_syntax_roundtrip =
  QCheck.Test.make ~name:"shape syntax roundtrip" ~count:500
    Tgen.arbitrary_shape_deep
    (fun s ->
      let printed = Shape_syntax.print s in
      match Shape_syntax.parse printed with
      | Ok s' -> Shape.equal s s'
      | Error e ->
          QCheck.Test.fail_reportf "cannot re-parse %S: %a" printed
            Shape_syntax.pp_error e)

let prop_nnf_is_nnf =
  QCheck.Test.make ~name:"nnf produces NNF" ~count:500 Tgen.arbitrary_shape_deep
    (fun s -> Shape.is_nnf (Shape.nnf s))

let prop_nnf_idempotent =
  QCheck.Test.make ~name:"nnf idempotent" ~count:500 Tgen.arbitrary_shape_deep
    (fun s -> Shape.equal (Shape.nnf s) (Shape.nnf (Shape.nnf s)))

(* Negating a normal form again must give what negating the source
   gives: [nnf (Not (nnf phi))] = [nnf (Not phi)], up to one duality.
   [¬∀E.psi] normalizes to [≥1 E.¬psi], whose negation is [≤0 E.¬psi],
   not [∀E.psi]; Table 2 gives the two the same conformance and the
   same neighborhood (every [E]-successor, traced with its
   [psi]-neighborhood), so both sides are compared with each [∀E.psi]
   spelled as [≤0 E.¬psi]. *)
let rec forall_as_le phi =
  match phi with
  | Shape.Forall (e, psi) ->
      Shape.Le (0, e, forall_as_le (Shape.nnf (Shape.Not psi)))
  | _ -> Shape.map_children forall_as_le phi

let prop_nnf_commutes_with_negation =
  QCheck.Test.make ~name:"nnf commutes with negation" ~count:1000
    Tgen.arbitrary_shape_deep
    (fun s ->
      Shape.equal
        (forall_as_le (Shape.nnf (Shape.Not (Shape.nnf s))))
        (forall_as_le (Shape.nnf (Shape.Not s))))

(* The shrunk engine counterexample behind the property: [¬≥0 E.psi]
   used to normalize to [⊥], whose negation [⊤] traces nothing, while
   negating the source gives back [≥0 E.psi], which traces [E]. *)
let test_nnf_negated_ge0 () =
  let ge0 =
    Shape.Ge
      ( 0,
        Rdf.Path.Opt (Rdf.Path.Prop (Rdf.Iri.of_string (ex "q"))),
        Shape.Unique_lang path_p )
  in
  check_shape "¬¬≥0 through nnf" ge0
    (Shape.nnf (Shape.Not (Shape.nnf (Shape.Not ge0))));
  check_shape "¬¬≥0 directly" ge0 (Shape.nnf (Shape.Not (Shape.Not ge0)));
  (* the syntax has no negative counts: [≤-1 E.psi] prints as the
     negation it normalizes from, and re-parses to the same form *)
  let negated = Shape.nnf (Shape.Not ge0) in
  let printed = Shape_syntax.print negated in
  match Shape_syntax.parse printed with
  | Ok s -> check_shape "printed normal form re-parses" negated (Shape.nnf s)
  | Error _ -> Alcotest.failf "cannot re-parse %S" printed

let suite =
  [ "NNF of quantifiers", `Quick, test_nnf_quantifiers;
    "NNF De Morgan", `Quick, test_nnf_de_morgan;
    "NNF of a negated >=0 negates back", `Quick, test_nnf_negated_ge0;
    "smart constructors", `Quick, test_smart_constructors;
    "is_nnf", `Quick, test_is_nnf;
    "closed(P) compares as a set", `Quick, test_closed_equal;
    "parse paper examples", `Quick, test_parse_examples;
    "parse node tests", `Quick, test_parse_tests;
    "parse errors", `Quick, test_parse_errors;
    "integer overflow is a parse error", `Quick, test_parse_int_overflow ]

let props =
  [ prop_syntax_roundtrip;
    prop_nnf_is_nnf;
    prop_nnf_idempotent;
    prop_nnf_commutes_with_negation;
    prop_parse_total;
    prop_parse_path_total ]
