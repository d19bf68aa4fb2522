(* Unit tests for the RDF substrate: literals, terms, graphs. *)

open Rdf

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- literals ----------------------------------------------------- *)

let test_literal_values () =
  check "int lt" true (Literal.lt (Literal.int 1) (Literal.int 2));
  check "int not lt self" false (Literal.lt (Literal.int 2) (Literal.int 2));
  check "int leq self" true (Literal.leq (Literal.int 2) (Literal.int 2));
  check "decimal vs integer comparable" true
    (Literal.lt (Literal.int 1)
       (Literal.make ~datatype:Vocab.Xsd.decimal "1.5"));
  check "cross-datatype value equality in leq" true
    (Literal.leq (Literal.int 1)
       (Literal.make ~datatype:Vocab.Xsd.decimal "1.0"));
  check "string lt" true (Literal.lt (Literal.string "a") (Literal.string "b"));
  check "string int incomparable" false
    (Literal.lt (Literal.string "a") (Literal.int 5));
  check "comparable strings" true
    (Literal.comparable (Literal.string "a") (Literal.string "b"));
  check "incomparable" false
    (Literal.comparable (Literal.string "a") (Literal.int 1));
  check "bool order" true (Literal.lt (Literal.bool false) (Literal.bool true));
  check "dateTime order" true
    (Literal.lt
       (Literal.date_time "2020-01-01T00:00:00")
       (Literal.date_time "2021-06-01T00:00:00"))

let test_literal_language () =
  let en1 = Literal.lang_string "hello" ~lang:"en" in
  let en2 = Literal.lang_string "bye" ~lang:"EN" in
  let fr = Literal.lang_string "salut" ~lang:"fr" in
  let plain = Literal.string "plain" in
  check "same language, case-insensitive" true (Literal.same_language en1 en2);
  check "different languages" false (Literal.same_language en1 fr);
  check "untagged never same" false (Literal.same_language plain plain);
  check "langMatches exact" true (Literal.language_matches en1 ~range:"en");
  check "langMatches star" true (Literal.language_matches fr ~range:"*");
  check "langMatches subtag" true
    (Literal.language_matches
       (Literal.lang_string "g'day" ~lang:"en-AU")
       ~range:"en");
  check "langMatches mismatch" false (Literal.language_matches fr ~range:"en");
  check "langString datatype" true
    (Iri.equal (Literal.datatype en1) Vocab.Rdf.lang_string)

let test_literal_invalid () =
  Alcotest.check_raises "lang with wrong datatype"
    (Invalid_argument "Literal.make: language tag with non-langString datatype")
    (fun () ->
      ignore (Literal.make ~lang:"en" ~datatype:Vocab.Xsd.string "x"))

(* --- terms -------------------------------------------------------- *)

let test_term_order () =
  let i = Term.iri "http://example.org/a" in
  let b = Term.blank "b0" in
  let l = Term.str "lit" in
  check "iri < blank" true (Term.compare i b < 0);
  check "blank < literal" true (Term.compare b l < 0);
  check "equal iris" true (Term.equal i (Term.iri "http://example.org/a"));
  check "as_iri" true (Term.as_iri i <> None);
  check "literal is_literal" true (Term.is_literal l)

(* --- graphs ------------------------------------------------------- *)

let a = Term.iri "http://example.org/a"
let b = Term.iri "http://example.org/b"
let c = Term.iri "http://example.org/c"
let p = Iri.of_string "http://example.org/p"
let q = Iri.of_string "http://example.org/q"

let sample =
  Graph.of_list
    [ Triple.make a p b; Triple.make b p c; Triple.make a q c;
      Triple.make c p a ]

let test_graph_basics () =
  check_int "cardinal" 4 (Graph.cardinal sample);
  check "mem" true (Graph.mem (Triple.make a p b) sample);
  check "not mem" false (Graph.mem (Triple.make a p c) sample);
  check "idempotent add" true
    (Graph.equal sample (Graph.add a p b sample));
  let removed = Graph.remove (Triple.make a p b) sample in
  check_int "remove" 3 (Graph.cardinal removed);
  check "removed gone" false (Graph.mem (Triple.make a p b) removed)

let test_graph_lookups () =
  Alcotest.check Tgen.term_set_testable "objects a p"
    (Term.Set.singleton b) (Graph.objects sample a p);
  Alcotest.check Tgen.term_set_testable "subjects p c"
    (Term.Set.singleton b) (Graph.subjects sample p c);
  check_int "subject triples of a" 2 (List.length (Graph.subject_triples sample a));
  check_int "object triples of c" 2 (List.length (Graph.object_triples sample c));
  check_int "predicate triples of p" 3
    (List.length (Graph.predicate_triples sample p));
  check_int "out predicates of a" 2
    (Iri.Set.cardinal (Graph.out_predicates sample a));
  check_int "nodes" 3 (Term.Set.cardinal (Graph.nodes sample))

let test_graph_sets () =
  let g1 = Graph.of_list [ Triple.make a p b; Triple.make b p c ] in
  let g2 = Graph.of_list [ Triple.make b p c; Triple.make a q c ] in
  check_int "union" 3 (Graph.cardinal (Graph.union g1 g2));
  check_int "inter" 1 (Graph.cardinal (Graph.inter g1 g2));
  check_int "diff" 1 (Graph.cardinal (Graph.diff g1 g2));
  check "subset" true (Graph.subset g1 sample);
  check "not subset" false (Graph.subset g2 g1);
  check "equal self" true (Graph.equal sample sample)

let test_graph_literal_subject () =
  Alcotest.check_raises "literal subject rejected"
    (Invalid_argument "Graph.add: literal in subject position") (fun () ->
      ignore (Graph.add (Term.str "l") p b Graph.empty))

(* --- properties --------------------------------------------------- *)

let prop_union_commutative =
  QCheck.Test.make ~name:"graph union commutative" ~count:100
    (QCheck.pair Tgen.arbitrary_graph Tgen.arbitrary_graph)
    (fun (g1, g2) -> Graph.equal (Graph.union g1 g2) (Graph.union g2 g1))

let prop_diff_union =
  QCheck.Test.make ~name:"(g1 - g2) ∪ (g1 ∩ g2) = g1" ~count:100
    (QCheck.pair Tgen.arbitrary_graph Tgen.arbitrary_graph)
    (fun (g1, g2) ->
      Graph.equal (Graph.union (Graph.diff g1 g2) (Graph.inter g1 g2)) g1)

let prop_roundtrip_list =
  QCheck.Test.make ~name:"of_list . to_list = id" ~count:100
    Tgen.arbitrary_graph
    (fun g -> Graph.equal g (Graph.of_list (Graph.to_list g)))

let prop_indexes_consistent =
  QCheck.Test.make ~name:"all index views agree" ~count:100
    Tgen.arbitrary_graph
    (fun g ->
      Graph.for_all
        (fun t ->
          let s = Triple.subject t and p = Triple.predicate t
          and o = Triple.object_ t in
          Term.Set.mem o (Graph.objects g s p)
          && Term.Set.mem s (Graph.subjects g p o)
          && Iri.Set.mem p (Graph.predicates_between g s o))
        g)

(* Store row offsets: every range lookup equals a linear scan of its
   ordering, for every id of the dictionary (ids with no rows in that
   position and the largest id included), for ids outside it, and for
   second keys that are not predicates of the store.  Checked on random
   stores and on [Store.patch]ed ones, whose deltas bring terms in and
   take their last occurrences out; the patched store still equals the
   one built from scratch. *)
let fresh_triple =
  let open QCheck.Gen in
  map3 Triple.make
    (oneofl (Term.iri (Tgen.ex "fresh") :: Term.blank "new" :: Tgen.subjects))
    (oneofl (Iri.of_string (Tgen.ex "freshProp") :: Tgen.props))
    (oneofl (Term.str "fresh" :: Term.iri (Tgen.ex "fresh") :: Tgen.objects))

let gen_store_case =
  let open QCheck.Gen in
  list_size (int_range 0 20) Tgen.gen_triple >>= fun l ->
  (if l = [] then return [] else list_size (int_range 0 8) (oneofl l))
  >>= fun removes ->
  list_size (int_range 0 4) fresh_triple >>= fun adds -> return (l, removes, adds)

let ranges_match_scans st =
  let n = Store.n_triples st and k = Store.n_terms st in
  let scan key = List.filter key (List.init n Fun.id) in
  let rows (lo, hi) = List.init (hi - lo) (fun i -> lo + i) in
  (* ids outside the dictionary, around both ends *)
  let ids = List.init (k + 4) (fun i -> i - 2) in
  let one (range, col) =
    List.for_all (fun i -> rows (range st i) = scan (fun r -> col st r = i)) ids
  in
  let two (range, lo, hi, col1, col2) =
    List.for_all
      (fun i ->
        List.for_all
          (fun j ->
            let r = range st i j in
            r = (lo st i j, hi st i j)
            && rows r = scan (fun r -> col1 st r = i && col2 st r = j))
          ids)
      ids
  in
  List.for_all one
    [ (Store.subject_range, Store.spo_subj);
      (Store.object_range, Store.osp_obj);
      (Store.predicate_range, Store.pos_pred) ]
  && List.for_all
       (fun s -> Store.subject_range st s = (Store.subject_lo st s, Store.subject_hi st s))
       ids
  && List.for_all two
       [ ( (fun st s p -> Store.objects_range st ~s ~p),
           (fun st s p -> Store.objects_lo st ~s ~p),
           (fun st s p -> Store.objects_hi st ~s ~p),
           Store.spo_subj, Store.spo_pred );
         ( (fun st p o -> Store.subjects_range st ~p ~o),
           (fun st p o -> Store.subjects_lo st ~p ~o),
           (fun st p o -> Store.subjects_hi st ~p ~o),
           Store.pos_pred, Store.pos_obj );
         ( (fun st o s -> Store.preds_range st ~o ~s),
           (fun st o s -> fst (Store.preds_range st ~o ~s)),
           (fun st o s -> snd (Store.preds_range st ~o ~s)),
           Store.osp_obj, Store.osp_subj ) ]
  && List.for_all
       (fun s ->
         List.for_all
           (fun p ->
             List.for_all
               (fun o ->
                 let row =
                   List.find_opt
                     (fun r ->
                       Store.spo_subj st r = s && Store.spo_pred st r = p
                       && Store.spo_obj st r = o)
                     (List.init n Fun.id)
                 in
                 Store.triple_row st s p o = row
                 && Store.mem_ids st s p o = (row <> None))
               ids)
           ids)
       ids

let prop_store_offsets =
  QCheck.Test.make ~name:"store ranges = linear scans (built and patched)"
    ~count:100
    (QCheck.make gen_store_case ~print:(fun (l, r, a) ->
         String.concat "\n"
           (List.map (fun (name, ts) ->
                name ^ ":\n" ^ String.concat "\n" (List.map (Format.asprintf "%a" Triple.pp) ts))
              [ ("graph", l); ("removes", r); ("adds", a) ])))
    (fun (l, removes, adds) ->
      let st = Store.of_triples (Array.of_list l) in
      let patched = Store.patch st ~removes ~adds in
      let rebuilt =
        Store.of_triples
          (Array.of_list (Graph.to_list (Graph.patch ~removes ~adds (Graph.of_list l))))
      in
      ranges_match_scans st && ranges_match_scans patched
      && Store.equal patched rebuilt)

(* --- literal order: one parse per operand ---------------------------- *)

(* The value relations as defined before [Literal.order], each parsing
   both operands itself, and SPARQL's comparison and equality on top of
   them: the oracle [Literal.order] and its callers must agree with. *)
module Per_relation = struct
  open Literal

  let lt a b =
    match value a, value b with
    | Num x, Num y -> x < y
    | Str x, Str y -> String.compare x y < 0
    | Bool x, Bool y -> (not x) && y
    | Time x, Time y -> String.compare x y < 0
    | _ -> false

  let value_equal a b =
    match value a, value b with
    | Num x, Num y -> x = y
    | Str x, Str y -> String.equal x y
    | Bool x, Bool y -> x = y
    | Time x, Time y -> String.equal x y
    | _ -> false

  let leq a b = lt a b || value_equal a b

  let comparable a b =
    match value a, value b with
    | Num _, Num _ | Str _, Str _ | Bool _, Bool _ | Time _, Time _ -> true
    | _ -> false

  let sparql_lt a b = if comparable a b then Some (lt a b) else None

  let sparql_eq a b =
    if comparable a b then Some (leq a b && leq b a) else Some (Literal.equal a b)
end

(* Mixed datatypes over lexical forms that collide across them: NaN and
   the infinities, signed zeros, "1"/"true" booleans, dates against
   dateTimes, and language strings. *)
let gen_literal =
  let open QCheck.Gen in
  let lexical =
    oneofl
      [ "NaN"; "INF"; "-INF"; "-0"; "0"; "1"; "1.0"; " 1 "; "2"; "true";
        "false"; "abc"; ""; "2020-01-01"; "2020-01-01T00:00:00";
        "2020-01-02" ]
  in
  let datatype =
    oneofl
      Vocab.Xsd.
        [ integer; decimal; double; float; string; boolean; date; date_time;
          Iri.of_string "http://example.org/custom" ]
  in
  frequency
    [ (4, map2 (fun dt s -> Literal.make ~datatype:dt s) datatype lexical);
      ( 1,
        map2
          (fun lang s -> Literal.lang_string s ~lang)
          (oneofl [ "en"; "fr" ]) lexical ) ]

let prop_literal_order =
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> Format.asprintf "%a, %a" Literal.pp a Literal.pp b)
      QCheck.Gen.(pair gen_literal gen_literal)
  in
  QCheck.Test.make ~name:"literal order = the per-relation definitions"
    ~count:2000 arb
    (fun (a, b) ->
      let sparql op =
        Sparql.Eval.eval_expr Graph.empty Sparql.Binding.empty
          (op
             ( Sparql.Algebra.E_term (Term.Literal a),
               Sparql.Algebra.E_term (Term.Literal b) ))
      in
      let as_bool = Option.map (fun t -> Term.equal t (Term.bool true)) in
      Literal.lt a b = Per_relation.lt a b
      && Literal.leq a b = Per_relation.leq a b
      && Literal.comparable a b = Per_relation.comparable a b
      && as_bool (sparql (fun (x, y) -> Sparql.Algebra.E_lt (x, y)))
         = Per_relation.sparql_lt a b
      && as_bool (sparql (fun (x, y) -> Sparql.Algebra.E_eq (x, y)))
         = Per_relation.sparql_eq a b)

let suite =
  [ "literal value order", `Quick, test_literal_values;
    "literal language tags", `Quick, test_literal_language;
    "literal validation", `Quick, test_literal_invalid;
    "term ordering", `Quick, test_term_order;
    "graph basics", `Quick, test_graph_basics;
    "graph lookups", `Quick, test_graph_lookups;
    "graph set operations", `Quick, test_graph_sets;
    "graph rejects literal subjects", `Quick, test_graph_literal_subject ]

let props =
  [ prop_union_commutative; prop_diff_union; prop_roundtrip_list;
    prop_indexes_consistent; prop_store_offsets; prop_literal_order ]
