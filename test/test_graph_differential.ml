(* Differential harness for the interned graph core.

   The frozen store ([Graph.freeze] → [Rdf.Store]) must be
   observationally identical to both the retained persistent-map
   indexes and a naive triple-list reference, over every access pattern
   the validator and the provenance tracer use: adjacency by predicate,
   triple membership, whole-node views, path evaluation [[E]]^G,
   neighborhoods B(v, G, φ) and full shape fragments.

   Graphs are drawn over a vocabulary that deliberately stresses the
   dictionary: IRI nodes, blank nodes, unicode literals (multi-byte
   code points, combining marks), language tags and numbers — and every
   triple list is inserted with duplicates, so dedup in the store
   builder is exercised on each case. *)

open Rdf
module Shape = Shacl.Shape

let ( ==> ) = QCheck.( ==> )

(* ---------------- vocabulary ---------------------------------------- *)

let blanks = List.map Term.blank [ "b0"; "b1"; "b2"; "düp" ]

let unicode_literals =
  [ Term.str "héllo wörld";
    Term.str "日本語テキスト";
    Term.str "z\xCC\x8Aa";                    (* z + combining ring *)
    Term.Literal (Literal.lang_string "ß" ~lang:"de");
    Term.Literal (Literal.lang_string "émoji \xF0\x9F\x90\xAB" ~lang:"fr") ]

let subjects = Tgen.nodes @ blanks
let objects = subjects @ unicode_literals @ Tgen.literals
let props = Tgen.props

open QCheck

let gen_triple =
  Gen.map3
    (fun s p o -> Triple.make s p o)
    (Gen.oneofl subjects) (Gen.oneofl props) (Gen.oneofl objects)

(* A raw triple list (duplicates likely on the small vocabulary), kept
   as a list so the naive reference sees exactly what was inserted. *)
let gen_triples = Gen.list_size (Gen.int_range 0 30) gen_triple

let print_triples l =
  String.concat "\n" (List.map (fun t -> Format.asprintf "%a" Triple.pp t) l)

let arbitrary_triples = make gen_triples ~print:print_triples

(* Every graph under test is built twice: the plain persistent-map graph
   and a frozen copy built from the list with every triple inserted
   twice (duplicate insertion must be invisible). *)
let graphs_of l =
  let g = Graph.of_list l in
  let gf = Graph.freeze (Graph.of_list (l @ l)) in
  g, gf

(* ---------------- naive reference ----------------------------------- *)

let ref_mem l s p o =
  List.exists
    (fun t ->
      Term.equal (Triple.subject t) s
      && Iri.equal (Triple.predicate t) p
      && Term.equal (Triple.object_ t) o)
    l

let ref_objects l s p =
  List.fold_left
    (fun acc t ->
      if Term.equal (Triple.subject t) s && Iri.equal (Triple.predicate t) p
      then Term.Set.add (Triple.object_ t) acc
      else acc)
    Term.Set.empty l

let ref_subjects l p o =
  List.fold_left
    (fun acc t ->
      if Iri.equal (Triple.predicate t) p && Term.equal (Triple.object_ t) o
      then Term.Set.add (Triple.subject t) acc
      else acc)
    Term.Set.empty l

let ref_nodes l =
  List.fold_left
    (fun acc t ->
      Term.Set.add (Triple.subject t) (Term.Set.add (Triple.object_ t) acc))
    Term.Set.empty l

(* ---------------- properties ---------------------------------------- *)

let count = 500

(* Adjacency and membership: frozen = unfrozen = naive list, probed over
   the whole vocabulary (hits and misses both matter — a store answering
   garbage outside its dictionary would only show on misses). *)
let adjacency_agrees =
  Test.make ~count ~name:"objects/subjects/mem: store = maps = naive"
    arbitrary_triples (fun l ->
      let g, gf = graphs_of l in
      List.for_all
        (fun s ->
          List.for_all
            (fun p ->
              Term.Set.equal (Graph.objects g s p) (ref_objects l s p)
              && Term.Set.equal (Graph.objects gf s p) (ref_objects l s p))
            props)
        subjects
      && List.for_all
           (fun o ->
             List.for_all
               (fun p ->
                 Term.Set.equal (Graph.subjects g p o) (ref_subjects l p o)
                 && Term.Set.equal (Graph.subjects gf p o) (ref_subjects l p o))
               props)
           objects
      && List.for_all
           (fun s ->
             List.for_all
               (fun p ->
                 List.for_all
                   (fun o ->
                     Graph.mem_spo s p o gf = ref_mem l s p o
                     && Graph.mem_spo s p o g = ref_mem l s p o)
                   objects)
               props)
           subjects)

let sorted_triples ts = List.sort Triple.compare ts

(* Whole-node views: the store-backed lists contain the same triples as
   the map-backed ones (compared sorted here; [accessors_agree] below
   checks the order too). *)
let views_agree =
  Test.make ~count ~name:"triple views and nodes: store = maps"
    arbitrary_triples (fun l ->
      let g, gf = graphs_of l in
      Graph.cardinal g = Graph.cardinal gf
      && Graph.equal g gf
      && Term.Set.equal (Graph.nodes gf) (ref_nodes l)
      && Term.Set.equal (Graph.nodes g) (Graph.nodes gf)
      && List.for_all
           (fun s ->
             sorted_triples (Graph.subject_triples g s)
             = sorted_triples (Graph.subject_triples gf s)
             && Iri.Set.equal (Graph.out_predicates g s)
                  (Graph.out_predicates gf s))
           subjects
      && List.for_all
           (fun o ->
             sorted_triples (Graph.object_triples g o)
             = sorted_triples (Graph.object_triples gf o))
           objects
      && List.for_all
           (fun p ->
             sorted_triples (Graph.predicate_triples g p)
             = sorted_triples (Graph.predicate_triples gf p))
           props)

(* Path evaluation: the id-space kernel ([Path.Batch] on the frozen
   store, decoded with [Store.term]) and the term-space definition
   ([Path.eval] on the unfrozen graph) must agree exactly — on the
   result set, and on the total [step] and [lookup] hook call counts,
   which budget/fuel accounting depends on.  Both directions run in
   one kernel context, so the inverse evaluation also exercises the
   memo's charge replay.  A start node the dictionary never interned
   cannot enter id space; the next property covers it. *)
let counting () =
  let steps = ref 0 and lookups = ref 0 in
  ( (fun () -> incr steps),
    (fun () -> incr lookups),
    fun () ->
      let r = (!steps, !lookups) in
      steps := 0;
      lookups := 0;
      r )

let path_eval_agrees =
  Test.make ~count ~name:"path eval: interned core = map core (+ hook parity)"
    (triple arbitrary_triples Tgen.arbitrary_path
       (make (Gen.oneofl subjects) ~print:Term.to_string))
    (fun (l, e, a) ->
      let g, gf = graphs_of l in
      let step, lookup, take = counting () in
      let fwd = Path.eval ~step ~lookup g e a in
      let fwd_charge = take () in
      let bwd = Path.eval_inv ~step ~lookup g e a in
      let bwd_charge = take () in
      let interned =
        Option.bind (Graph.store gf) (fun st ->
            Option.map (fun aid -> (st, aid)) (Store.id st a))
      in
      match interned with
      | None ->
          Term.Set.subset fwd (Term.Set.singleton a)
          && Term.Set.subset bwd (Term.Set.singleton a)
      | Some (st, aid) ->
          let ctx = Path.Batch.create ~step ~lookup st in
          let decode ids =
            Array.fold_left
              (fun acc i -> Term.Set.add (Store.term st i) acc)
              Term.Set.empty ids
          in
          let kfwd = decode (Path.Batch.eval ctx e aid) in
          let kfwd_charge = take () in
          let kbwd = decode (Path.Batch.eval_inv ctx e aid) in
          let kbwd_charge = take () in
          (Term.Set.equal fwd kfwd && Term.Set.equal bwd kbwd
          || Test.fail_report "result sets differ")
          && (fwd_charge = kfwd_charge && bwd_charge = kbwd_charge
             || Test.fail_reportf
                  "charge differs: eval %d/%d vs kernel %d/%d, eval_inv \
                   %d/%d vs kernel %d/%d"
                  (fst fwd_charge) (snd fwd_charge) (fst kfwd_charge)
                  (snd kfwd_charge) (fst bwd_charge) (snd bwd_charge)
                  (fst kbwd_charge) (snd kbwd_charge)))

(* A start node that occurs in no triple reaches itself through the
   identity of [E*]/[E?] and nothing else. *)
let rec nullable = function
  | Path.Prop _ -> false
  | Path.Inv e -> nullable e
  | Path.Seq (e1, e2) -> nullable e1 && nullable e2
  | Path.Alt (e1, e2) -> nullable e1 || nullable e2
  | Path.Star _ | Path.Opt _ -> true

let path_eval_unknown_start =
  Test.make ~count ~name:"path eval: unknown start node"
    (pair arbitrary_triples Tgen.arbitrary_path) (fun (l, e) ->
      let _, gf = graphs_of l in
      let stranger = Term.iri "http://example.org/never-inserted" in
      let expect =
        if nullable e then Term.Set.singleton stranger else Term.Set.empty
      in
      Term.Set.equal (Path.eval gf e stranger) expect
      && Term.Set.equal (Path.eval_inv gf e stranger) expect)

(* Neighborhoods: B(v, G, φ) must not depend on the representation. *)
let neighborhood_agrees =
  Test.make ~count ~name:"neighborhood: B(v,G,phi) frozen = unfrozen"
    (triple arbitrary_triples Tgen.arbitrary_shape Tgen.arbitrary_node)
    (fun (l, phi, v) ->
      let g, gf = graphs_of l in
      let c1, n1 = Provenance.Neighborhood.check g v phi in
      let c2, n2 = Provenance.Neighborhood.check gf v phi in
      c1 = c2 && Graph.equal n1 n2)

(* Full fragments: the parallel engine (which freezes internally) against
   the sequential oracle on the unfrozen graph — set-equal, and (the
   paper's notion of output equivalence) isomorphic. *)
let fragment_agrees =
  Test.make ~count ~name:"fragment: engine on frozen = sequential oracle"
    (pair arbitrary_triples Tgen.arbitrary_shape) (fun (l, phi) ->
      let g, _ = graphs_of l in
      let oracle = Provenance.Fragment.frag g [ phi ] in
      let frag1 = Provenance.Engine.fragment ~jobs:1 g [ phi ] in
      let frag2 = Provenance.Engine.fragment ~jobs:3 g [ phi ] in
      Graph.equal oracle frag1 && Graph.equal oracle frag2
      && Isomorphism.isomorphic oracle frag1)

(* Store internals: canonical row ids round-trip, and ids are assigned
   in term order (the invariant that makes ordered id iteration decode
   to term-ordered output). *)
let store_internals =
  Test.make ~count ~name:"store: row round-trip, ids in term order"
    arbitrary_triples (fun l ->
      l <> [] ==>
      let _, gf = graphs_of l in
      match Graph.store gf with
      | None -> false
      | Some st ->
          let n = Store.n_triples st in
          let rows_ok = ref true in
          for r = 0 to n - 1 do
            match Store.row_of_triple st (Store.row_triple st r) with
            | Some r' when r' = r -> ()
            | _ -> rows_ok := false
          done;
          let order_ok = ref true in
          for i = 0 to Store.n_terms st - 2 do
            if Term.compare (Store.term st i) (Store.term st (i + 1)) >= 0
            then order_ok := false
          done;
          !rows_ok && !order_ok
          && Store.n_triples st = Graph.cardinal gf)

(* Freezing is transparent: same triples; updating a frozen graph
   drops the store. *)
let freeze_transparent =
  Test.make ~count ~name:"freeze: same graph, same triples; update thaws"
    (pair arbitrary_triples
       (make gen_triple ~print:(fun t -> Format.asprintf "%a" Triple.pp t)))
    (fun (l, extra) ->
      let g = Graph.of_list l in
      let gf = Graph.freeze g in
      let g' = Graph.add_triple extra gf in
      Graph.equal g gf
      && (Graph.is_empty g || Graph.frozen gf)
      && Graph.mem extra g'
      &&
      (* a no-op add keeps the graph, store and all; a real add thaws
         it *)
      if Graph.mem extra gf then Graph.frozen g' || Graph.is_empty g
      else not (Graph.frozen g'))

(* Patching is rebuilding: [Store.patch] on a store and a delta is
   equal, field for field, to [Store.of_triples] on the new triple set,
   and [Delta.apply] on a frozen graph carries exactly that store.  The
   graph side's vocabulary adds [ex:r] as a node, so one IRI sits in
   predicate and node position; the delta side adds terms the graph
   never has, in every position.  Graphs are small, so removes often
   take a term's last occurrence (as subject, object or predicate), and
   one case in six drains the graph. *)
let both = Term.Iri Tgen.prop_r

let gen_graph_triple =
  Gen.map3 Triple.make
    (Gen.oneofl (both :: subjects))
    (Gen.oneofl props)
    (Gen.oneofl (both :: objects))

let gen_delta_triple =
  Gen.map3 Triple.make
    (Gen.oneofl
       (Term.iri (Tgen.ex "fresh") :: Term.blank "fresh" :: both :: subjects))
    (Gen.oneofl (Iri.of_string (Tgen.ex "freshProp") :: props))
    (Gen.oneofl
       (Term.iri (Tgen.ex "fresh") :: Term.blank "fresh"
       :: Term.str "fresh \xE2\x9C\x93" :: both :: objects))

(* a graph drawn by [gen_graph], triples to remove and triples to add *)
let gen_patch_case gen_graph =
  let open Gen in
  gen_graph >>= fun l ->
  let from_graph n = if l = [] then return [] else list_size n (oneofl l) in
  let drain = map (fun removes -> (l, removes, [])) (shuffle_l l) in
  let mixed =
    frequency [ 1, return l; 5, from_graph (int_range 0 5) ] >>= fun present ->
    list_size (int_range 0 2) gen_delta_triple >>= fun absent ->
    list_size (int_range 0 4) gen_delta_triple >>= fun fresh ->
    from_graph (int_range 0 2) >>= fun readd ->
    (* duplicate adds: part of the list again *)
    int_range 0 2 >>= fun dup ->
    let adds = fresh @ readd in
    let adds = adds @ List.filteri (fun i _ -> i < dup) adds in
    shuffle_l (present @ absent) >>= fun removes -> return (l, removes, adds)
  in
  frequency [ 1, drain; 5, mixed ]

let arbitrary_patch_case gen_graph =
  make (gen_patch_case gen_graph) ~print:(fun (l, removes, adds) ->
      Printf.sprintf "graph:\n%s\nremoves:\n%s\nadds:\n%s"
        (print_triples l) (print_triples removes) (print_triples adds))

let store_patch_agrees =
  Test.make ~count:1000 ~name:"store patch = of_triples on the new triple set"
    (arbitrary_patch_case (Gen.list_size (Gen.int_range 0 12) gen_graph_triple))
    (fun (l, removes, adds) ->
      let st = Store.of_triples (Array.of_list l) in
      let g' = Graph.patch ~removes ~adds (Graph.of_list l) in
      let expected = Store.of_triples (Array.of_list (Graph.to_list g')) in
      let patched = Store.patch st ~removes ~adds in
      let via_delta =
        Delta.apply
          (Delta.make ~removes ~adds ())
          (Graph.freeze (Graph.of_list l))
      in
      Store.equal patched expected
      && Graph.equal via_delta g'
      &&
      (* frozen in, frozen out: [freeze] leaves an empty input unfrozen *)
      match Graph.store via_delta with
      | Some st' -> Store.equal st' expected
      | None -> l = [] && not (Graph.frozen via_delta))

(* Every accessor and update answers alike, order included, on the
   map-built graph [g], on [freeze g] (store-backed reads, same maps),
   on the graph the parser loads from [g]'s Turtle (a view of its store,
   maps built on first read) and on that graph thawed (maps built from
   the store).  Each reader runs on a fresh copy, so on the parsed graph
   it is the first to read; a later [freeze] of an update gives the
   store a from-scratch freeze gives. *)
let accessors_agree =
  Test.make ~count
    ~name:"accessors: g = freeze g = parsed g = thawed, order included"
    (arbitrary_patch_case gen_triples) (fun (l, removes, adds) ->
      let g = Graph.of_list l in
      let text = Turtle.to_string g in
      let parsed () = Turtle.parse_exn text in
      let reps =
        [ (fun () -> Graph.freeze g); parsed;
          (fun () -> Graph.thaw (parsed ())) ]
      in
      let triples = List.equal Triple.equal in
      let terms a b =
        List.equal Term.equal (Term.Set.elements a) (Term.Set.elements b)
      and iris a b =
        List.equal Iri.equal (Iri.Set.elements a) (Iri.Set.elements b)
      in
      let same a b =
        Graph.equal a b && triples (Graph.to_list a) (Graph.to_list b)
      in
      let agree eq f = List.for_all (fun rep -> eq (f g) (f (rep ()))) reps in
      let keyed keys eq f = agree (List.equal eq) (fun g -> List.map (f g) keys) in
      let pairs a b = List.concat_map (fun x -> List.map (fun y -> (x, y)) b) a in
      let nodes = both :: subjects and onodes = both :: objects in
      let forms =
        Graph.frozen (parsed ()) = (l <> [])
        && not (Graph.frozen (Graph.thaw (parsed ())))
      in
      let readers =
        agree Int.equal Graph.cardinal
        && agree triples Graph.to_list
        && agree triples (fun g -> List.of_seq (Graph.to_seq g))
        && agree triples (fun g -> List.rev (Graph.fold List.cons g []))
        && agree Bool.equal
             (Graph.exists (fun t -> Term.is_blank (Triple.object_ t)))
        && agree Bool.equal (fun h -> Graph.equal h g && Graph.subset g h)
        && agree terms Graph.nodes
        && agree terms Graph.subjects_all
        && agree iris Graph.predicates_all
        && keyed nodes triples Graph.subject_triples
        && keyed nodes iris Graph.out_predicates
        && keyed onodes triples Graph.object_triples
        && keyed props triples Graph.predicate_triples
        && keyed (pairs nodes props) terms (fun g (s, p) -> Graph.objects g s p)
        && keyed (pairs props onodes) terms (fun g (p, o) ->
               Graph.subjects g p o)
        && keyed (pairs nodes onodes) iris (fun g (s, o) ->
               Graph.predicates_between g s o)
        && keyed (pairs (pairs nodes props) onodes) Bool.equal
             (fun g ((s, p), o) -> Graph.mem_spo s p o g)
      in
      let updates =
        let delta = Graph.of_list adds in
        let patched g = Graph.patch ~removes ~adds g in
        let scratch = Graph.freeze (patched g) in
        agree same (fun g -> List.fold_left (Fun.flip Graph.add_triple) g adds)
        && agree same (fun g -> List.fold_left (Fun.flip Graph.remove) g removes)
        && agree same patched
        && agree same (fun g -> Graph.union g delta)
        && agree same (fun g -> Graph.diff g delta)
        && List.for_all
             (fun rep ->
               let frozen = Graph.freeze (patched (rep ())) in
               same frozen scratch
               &&
               match Graph.store frozen, Graph.store scratch with
               | Some a, Some b -> Store.equal a b
               | _, None -> Graph.is_empty scratch
               | None, Some _ -> false)
             reps
      in
      forms && readers && updates)

(* ---------------- bulk load ----------------------------------------- *)

(* Literals whose Turtle needs escapes, a custom and a built-in
   datatype, and a language tag with a subtag; with the blank nodes and
   unicode literals above, every lexer path of the loader runs. *)
let load_objects =
  both :: objects
  @ [ Term.str "quote \" backslash \\ tab \t";
      Term.str "two\nlines\r\n";
      Term.str "";
      Term.Literal
        (Literal.make ~datatype:(Iri.of_string (Tgen.ex "dt")) "v 1");
      Term.Literal (Literal.make ~datatype:Vocab.Xsd.decimal "2.50");
      Term.Literal (Literal.make ~datatype:Vocab.Xsd.double "1.0e3");
      Term.Literal (Literal.lang_string "x" ~lang:"en-GB") ]

let gen_load_case =
  let open Gen in
  list_size (int_range 0 40)
    (map3 Triple.make
       (oneofl (both :: subjects))
       (oneofl props) (oneofl load_objects))
  >>= fun l -> shuffle_l (l @ l) >|= fun shuffled -> (l, shuffled)

(* [Turtle.parse] builds the store from its id columns and the maps from
   the store.  Checked against the map builder ([Graph.of_list]), the
   comparison-sort store path ([Store.patch] of the empty store) and
   [Store.of_triples] on the triples shuffled and duplicated. *)
let bulk_load_agrees =
  Test.make ~count:1000 ~name:"bulk load: parse (to_string g) = builders"
    (make gen_load_case ~print:(fun (l, _) -> print_triples l))
    (fun (l, shuffled) ->
      let g = Graph.of_list l in
      let parsed = Turtle.parse_exn (Turtle.to_string g) in
      let keys = both :: subjects and okeys = load_objects in
      let maps_agree =
        List.for_all
          (fun s ->
            List.for_all
              (fun p ->
                Term.Set.equal (Graph.objects parsed s p) (Graph.objects g s p))
              props
            && List.for_all
                 (fun o ->
                   Iri.Set.equal
                     (Graph.predicates_between parsed s o)
                     (Graph.predicates_between g s o))
                 okeys)
          keys
        && List.for_all
             (fun o ->
               List.for_all
                 (fun p ->
                   Term.Set.equal (Graph.subjects parsed p o)
                     (Graph.subjects g p o))
                 props)
             okeys
      in
      let compared = Store.patch (Store.of_triples [||]) ~removes:[] ~adds:l in
      let shuffled = Store.of_triples (Array.of_list shuffled) in
      Graph.equal parsed g && maps_agree
      &&
      match Graph.store parsed with
      | None -> l = [] && not (Graph.frozen parsed)
      | Some st -> Store.equal st compared && Store.equal st shuffled)

(* ---------------- engine row views ---------------------------------- *)

(* The fragment [Engine.run] returns is a row view of a larger store:
   every reader agrees with the map graph of the same triples, list
   order included, and the view has no store of its own until [freeze]
   builds the one [of_triples] would. *)
let row_view_agrees =
  Test.make ~count ~name:"engine row view: readers and updates = of_list"
    (pair arbitrary_triples (make gen_triple ~print:(fun t -> print_triples [ t ])))
    (fun (l, extra) ->
      let g = Graph.of_list l in
      let v = Tgen.engine_view l in
      let triples = List.equal Triple.equal in
      let same a b = Graph.equal a b && triples (Graph.to_list a) (Graph.to_list b) in
      let unfrozen = Graph.store v = None && not (Graph.frozen v) in
      let is_view = l = [] || Graph.row_view v <> None in
      let counts = Graph.cardinal v = Graph.cardinal g in
      let lists =
        triples (Graph.to_list v) (Graph.to_list g)
        && triples (List.of_seq (Graph.to_seq v)) (Graph.to_list g)
        && triples (List.rev (Graph.fold List.cons v [])) (Graph.to_list g)
      in
      let members =
        List.for_all
          (fun s ->
            List.for_all
              (fun p ->
                List.for_all
                  (fun o -> Graph.mem_spo s p o v = Graph.mem_spo s p o g)
                  objects)
              props)
          subjects
      in
      let equal = Graph.equal v g && Graph.equal g v && Graph.subset v g in
      (* [to_list] and [mem] above ran on the rows; these build the maps *)
      let lookups =
        List.for_all
          (fun s ->
            List.for_all
              (fun p ->
                Term.Set.equal (Graph.objects v s p) (Graph.objects g s p))
              props)
          subjects
        && List.for_all
             (fun o ->
               List.for_all
                 (fun p ->
                   Term.Set.equal (Graph.subjects v p o) (Graph.subjects g p o))
                 props)
             objects
      in
      let updates =
        same (Graph.add_triple extra v) (Graph.add_triple extra g)
        && same (Graph.remove extra v) (Graph.remove extra g)
        && List.for_all (fun t -> same (Graph.remove t v) (Graph.remove t g)) l
        && same (Graph.union v (Graph.of_list [ extra ]))
             (Graph.union g (Graph.of_list [ extra ]))
        && same (Graph.union (Graph.of_list [ extra ]) v)
             (Graph.union (Graph.of_list [ extra ]) g)
      in
      let frozen =
        let fv = Graph.freeze v and fg = Graph.freeze g in
        same fv fg
        &&
        match Graph.store fv, Graph.store fg with
        | Some a, Some b -> Store.equal a b
        | None, None -> l = []
        | _ -> false
      in
      unfrozen && is_view && counts && lists && members && equal && lookups
      && updates && frozen && Graph.store v = None)

let props =
  [ adjacency_agrees;
    views_agree;
    path_eval_agrees;
    path_eval_unknown_start;
    neighborhood_agrees;
    fragment_agrees;
    store_internals;
    freeze_transparent;
    store_patch_agrees;
    accessors_agree;
    bulk_load_agrees;
    row_view_agrees ]

(* ---------------- unit regressions ---------------------------------- *)

let a = Term.iri (Tgen.ex "a")
let b = Term.iri (Tgen.ex "b")
let c = Term.iri (Tgen.ex "c")
let d = Term.iri (Tgen.ex "d")
let p = Tgen.prop_p
let q = Tgen.prop_q

(* Updates thaw, no-ops do not, and freezing is idempotent. *)
let test_freeze_contract () =
  let g1 = Graph.freeze (Graph.add a p b Graph.empty) in
  Alcotest.(check bool) "no-op add keeps the store" true
    (Graph.frozen (Graph.add a p b g1));
  let g3 = Graph.add b q c g1 in
  Alcotest.(check bool) "real add thaws" false (Graph.frozen g3);
  let g3f = Graph.freeze g3 in
  Alcotest.(check bool) "freeze is idempotent" true (Graph.freeze g3f == g3f);
  Alcotest.(check bool) "remove thaws" false
    (Graph.frozen (Graph.remove (Triple.make b q c) g3f))

(* Removal from a frozen graph: the interned store is stale for the new
   triple set, so it must be dropped (the result is unfrozen); a no-op
   removal touches nothing.  Deltas lean on
   exactly these properties, so pin them down. *)
let test_frozen_remove () =
  let g = Graph.freeze (Graph.add a p b (Graph.add b q c Graph.empty)) in
  Alcotest.(check bool) "fixture is frozen" true (Graph.frozen g);
  let g' = Graph.remove (Triple.make a p b) g in
  Alcotest.(check bool) "store dropped" false (Graph.frozen g');
  Alcotest.(check bool) "triple gone" false (Graph.mem (Triple.make a p b) g');
  Alcotest.(check bool) "other triple kept" true
    (Graph.mem (Triple.make b q c) g');
  Alcotest.(check int) "size" 1 (Graph.cardinal g');
  (* the frozen original is a value: untouched *)
  Alcotest.(check bool) "original still frozen" true (Graph.frozen g);
  Alcotest.(check bool) "original still has the triple" true
    (Graph.mem (Triple.make a p b) g);
  (* removing an absent triple is the identity, store intact *)
  let g'' = Graph.remove (Triple.make a q c) g in
  Alcotest.(check bool) "no-op is the identity" true (g'' == g);
  Alcotest.(check bool) "no-op keeps the store" true (Graph.frozen g'');
  (* a re-frozen removal result queries like a from-scratch build *)
  Alcotest.check Tgen.graph_testable "re-freeze equals rebuild"
    (Graph.add b q c Graph.empty)
    (Graph.freeze g')

(* Removing the last triple of a subject/predicate/object must also
   clear the index buckets, or iteration and path evaluation would see
   ghosts.  Exercise all three index orders through the public API. *)
let test_frozen_remove_clears_indexes () =
  let g = Graph.freeze (Graph.add a p b Graph.empty) in
  let g' = Graph.remove (Triple.make a p b) g in
  Alcotest.(check bool) "now empty" true (Graph.is_empty g');
  Alcotest.(check int) "no triples listed" 0 (List.length (Graph.to_list g'));
  Alcotest.check Tgen.term_set_testable "spo bucket cleared" Term.Set.empty
    (Path.eval g' (Path.Prop p) a);
  Alcotest.check Tgen.term_set_testable "pos/osp buckets cleared"
    Term.Set.empty
    (Path.eval g' (Path.Inv (Path.Prop p)) b)

let test_freeze_empty () =
  let g = Graph.freeze Graph.empty in
  Alcotest.(check bool) "empty graph has no store" false (Graph.frozen g);
  Alcotest.(check bool) "still empty" true (Graph.is_empty g)

let test_store_counts_probes () =
  let g = Graph.freeze (Graph.add a p b (Graph.add b q c Graph.empty)) in
  let lookups = ref 0 in
  ignore
    (Path.eval ~lookup:(fun () -> incr lookups) g
       (Path.Seq (Path.Prop p, Path.Prop q))
       a);
  Alcotest.(check bool) "lookup hook fired" true (!lookups > 0)

(* Two domains that are the first to read one parsed graph's maps, at
   the same moment, both answer like the map builder's graph; neither
   raises. *)
let test_parsed_maps_two_domains () =
  let source = Workload.Kg.generate ~seed:3 ~individuals:200 in
  let text = Turtle.to_string source in
  let twin = Graph.of_list (Graph.to_list source) in
  let answers g =
    Graph.fold
      (fun t acc ->
        let s = Triple.subject t and p = Triple.predicate t
        and o = Triple.object_ t in
        Term.Set.elements (Graph.objects g s p)
        :: Term.Set.elements (Graph.subjects g p o)
        :: acc)
      twin []
  in
  let expected = answers twin in
  for _ = 1 to 5 do
    let g = Turtle.parse_exn text in
    let ready = Atomic.make 0 in
    let read () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      answers g
    in
    let d1 = Domain.spawn read and d2 = Domain.spawn read in
    let a1 = Domain.join d1 and a2 = Domain.join d2 in
    let same = List.equal (List.equal Term.equal) in
    Alcotest.(check bool) "both domains answer like the builder" true
      (same a1 expected && same a2 expected);
    Alcotest.(check bool) "the graph stays frozen" true (Graph.frozen g)
  done

let suite =
  [ Alcotest.test_case "graph freeze/thaw contract" `Quick
      test_freeze_contract;
    Alcotest.test_case "frozen remove" `Quick test_frozen_remove;
    Alcotest.test_case "frozen remove clears indexes" `Quick
      test_frozen_remove_clears_indexes;
    Alcotest.test_case "freeze of the empty graph" `Quick test_freeze_empty;
    Alcotest.test_case "store lookup hook" `Quick test_store_counts_probes;
    Alcotest.test_case "parsed graph: maps forced by two domains" `Quick
      test_parsed_maps_two_domains ]
