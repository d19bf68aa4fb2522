open Rdf
open Shacl
open Sparql.Algebra
module V = Bsbm.Voc

type expressibility =
  | Shape_fragment of { shape : Shape.t; exact : bool }
  | Not_expressible of string

type t = {
  id : string;
  source : string;
  description : string;
  template : triple_pattern list;
  where : Sparql.Algebra.t;
  expressibility : expressibility;
}

(* ------------------------------------------------------------------ *)
(* A tree-pattern DSL: each tree yields both the CONSTRUCT WHERE query *)
(* and the request shape, following the Section 4.1 translation.       *)
(* ------------------------------------------------------------------ *)

type child =
  | Any                        (* fresh variable, no constraint *)
  | Const of Term.t            (* fixed object *)
  | Check of Node_test.t       (* variable with FILTER (node test) *)
  | Tree of tree               (* nested pattern *)

and branch = {
  path : Rdf.Path.t;
  card : [ `Required | `Optional | `Absent ];
  child : child;
}

and tree = branch list

let req ?(child = Any) path = { path; card = `Required; child }
let opt ?(child = Any) path = { path; card = `Optional; child }
let absent ?(child = Any) path = { path; card = `Absent; child }
let p i = Rdf.Path.Prop i
let inv i = Rdf.Path.Inv (Rdf.Path.Prop i)

let rec shape_of_tree tree =
  Shape.and_ (List.map shape_of_branch tree)

and shape_of_branch { path; card; child } =
  let child_shape =
    match child with
    | Any -> Shape.Top
    | Const c -> Shape.Has_value c
    | Check t -> Shape.Test t
    | Tree t -> shape_of_tree t
  in
  match card with
  | `Required -> Shape.Ge (1, path, child_shape)
  | `Optional -> Shape.Ge (0, path, child_shape)
  | `Absent -> Shape.Le (0, path, child_shape)

let rec tree_exact tree = List.for_all branch_exact tree

and branch_exact { card; child; _ } =
  card <> `Absent
  && (match child with Tree t -> tree_exact t | Any | Const _ | Check _ -> true)

(* Build the CONSTRUCT query.  Fresh variables per call.  Forward edges
   become ordinary triple patterns; inverse single-property edges are
   written the way a query author would, with subject and object swapped;
   other complex paths fall back to path patterns (and cannot appear in
   the template, so the catalogue avoids them). *)
let query_of_tree tree =
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "v%d" !counter
  in
  let edge root path obj =
    match path with
    | Rdf.Path.Prop i -> Some (tp (Var root) (Pred i) obj), BGP [ tp (Var root) (Pred i) obj ]
    | Rdf.Path.Inv (Rdf.Path.Prop i) ->
        let reversed = tp obj (Pred i) (Var root) in
        Some reversed, BGP [ reversed ]
    | e -> None, BGP [ tp (Var root) (Ppath e) obj ]
  in
  (* returns (template, algebra) where required parts are joined first and
     optional / absent parts wrap the accumulated pattern, preserving
     SPARQL's left-join scoping *)
  let rec go_tree root tree =
    let required, others =
      List.partition (fun b -> b.card = `Required) tree
    in
    let tpl, alg =
      List.fold_left
        (fun (tpl, alg) branch ->
          let tpl', alg' = go_branch root branch in
          tpl @ tpl', Join (alg, alg'))
        ([], Unit) required
    in
    List.fold_left
      (fun (tpl, alg) branch ->
        let tpl', alg' = go_branch root branch in
        match branch.card with
        | `Optional -> tpl @ tpl', Left_join (alg, alg', e_true)
        | `Absent -> tpl, Filter (E_not_exists alg', alg)
        | `Required -> assert false)
      (tpl, alg) others
  and go_branch root { path; card = _; child } =
    let obj, child_tpl, child_alg, filter =
      match child with
      | Any ->
          let x = fresh () in
          Var x, [], Unit, None
      | Const c -> Const c, [], Unit, None
      | Check t ->
          let x = fresh () in
          ( Var x,
            [],
            Unit,
            Some
              (E_fun
                 {
                   name = Format.asprintf "%a" Node_test.pp t;
                   f = Node_test.satisfies t;
                   arg = E_var x;
                 }) )
      | Tree sub ->
          let x = fresh () in
          let tpl, alg = go_tree x sub in
          Var x, tpl, alg, None
    in
    let template_triple, pattern = edge root path obj in
    let base = Join (pattern, child_alg) in
    let base = match filter with Some f -> Filter (f, base) | None -> base in
    let tpl =
      match template_triple with
      | Some t -> t :: child_tpl
      | None -> child_tpl
    in
    tpl, base
  in
  let root = fresh () in
  go_tree root tree

(* Where Pred path objects are literals we must not place them in subject
   position of template triples; CONSTRUCT skips such rows at runtime. *)

let tree_query id source description tree =
  let template, where = query_of_tree tree in
  {
    id;
    source;
    description;
    template;
    where;
    expressibility =
      Shape_fragment { shape = shape_of_tree tree; exact = tree_exact tree };
  }

(* ------------------------------------------------------------------ *)
(* Node tests used in filters                                          *)
(* ------------------------------------------------------------------ *)

let ge_int n = Node_test.Min_inclusive (Literal.int n)
let lt_int n = Node_test.Max_exclusive (Literal.int n)
let lang l = Node_test.Language l
let feature n = Const (V.feature_term n)

(* Class membership as a plain type edge (the generated data has no
   subclassing on the BSBM side). *)
let typed cls rest = req (p Vocab.Rdf.type_) ~child:(Const cls) :: rest

(* ------------------------------------------------------------------ *)
(* The catalogue                                                       *)
(* ------------------------------------------------------------------ *)

let bsbm = "BSBM"
let watdiv = "WatDiv"

let tree_queries =
  [
    (* --- BSBM-style product / review / offer queries --- *)
    tree_query "B01" bsbm "products with a given feature and small numeric1"
      (typed V.product
         [ req (p V.label);
           req (p V.feature) ~child:(feature 1);
           req (p V.numeric1) ~child:(Check (lt_int 1000)) ]);
    tree_query "B02" bsbm "product details with producer label"
      (typed V.product
         [ req (p V.label);
           req (p V.comment);
           req (p V.producer_p) ~child:(Tree [ req (p V.label) ]) ]);
    tree_query "B03" bsbm "products with feature 1 but lacking feature 5"
      (typed V.product
         [ req (p V.label);
           req (p V.feature) ~child:(feature 1);
           absent (p V.feature) ~child:(feature 5) ]);
    tree_query "B04" bsbm "products with either high ratings via reviews"
      (typed V.product
         [ req (p V.has_review)
             ~child:(Tree [ req (p V.rating1) ~child:(Check (ge_int 7)) ]) ]);
    tree_query "B05" bsbm "products with english review text"
      (typed V.product
         [ req (p V.label);
           req (p V.has_review)
             ~child:(Tree [ req (p V.text) ~child:(Check (lang "en")) ]) ]);
    tree_query "B06" bsbm "reviews with optional second rating"
      (typed V.review
         [ req (p V.title); req (p V.rating1); opt (p V.rating2) ]);
    tree_query "B07" bsbm "offer details with vendor and product labels"
      (typed V.offer
         [ req (p V.price);
           req (p V.vendor_p) ~child:(Tree [ req (p V.label) ]);
           req (p V.offer_of) ~child:(Tree [ req (p V.label) ]) ]);
    tree_query "B08" bsbm "reviews by US reviewers"
      (typed V.review
         [ req (p V.title);
           req (p V.reviewer)
             ~child:
               (Tree
                  [ req (p V.name);
                    req (p V.country) ~child:(Const (V.country_term "US")) ]) ]);
    tree_query "B09" bsbm "products reviewed and offered (join of branches)"
      (typed V.product
         [ req (p V.has_review) ~child:(Tree [ req (p V.reviewer) ]);
           req (inv V.offer_of) ~child:(Tree [ req (p V.price) ]) ]);
    (* --- WatDiv-style star / linear / snowflake patterns --- *)
    tree_query "W01" watdiv "star: product attributes"
      (typed V.product [ req (p V.label); req (p V.numeric1); req (p V.numeric2) ]);
    tree_query "W02" watdiv "star: review attributes"
      (typed V.review [ req (p V.rating1); req (p V.text); req (p V.reviewer) ]);
    tree_query "W03" watdiv "linear: product -> review -> reviewer -> country"
      [ req (p V.has_review)
          ~child:
            (Tree
               [ req (p V.reviewer)
                   ~child:(Tree [ req (p V.country) ]) ]) ];
    tree_query "W04" watdiv "linear: offer -> product -> producer"
      (typed V.offer
         [ req (p V.offer_of)
             ~child:(Tree [ req (p V.producer_p) ~child:(Tree [ req (p V.label) ]) ]) ]);
    tree_query "W05" watdiv "snowflake: product with reviews and offers"
      (typed V.product
         [ req (p V.label);
           req (p V.has_review)
             ~child:(Tree [ req (p V.rating1); req (p V.reviewer) ]);
           req (inv V.offer_of)
             ~child:(Tree [ req (p V.vendor_p); req (p V.price) ]) ]);
    tree_query "W06" watdiv "inverse: reviewers of a given product feature"
      [ req (p V.reviewer);
        req (p V.review_for)
          ~child:(Tree [ req (p V.feature) ~child:(feature 2) ]) ];
    tree_query "W07" watdiv "products of producer 0"
      (typed V.product
         [ req (p V.producer_p)
             ~child:(Const (Term.iri (Bsbm.ns ^ "producer/0"))) ]);
    tree_query "W08" watdiv "people who reviewed something (inverse edge)"
      (typed V.person [ req (inv V.reviewer) ]);
    tree_query "W09" watdiv "reviews for products with feature 3"
      (typed V.review
         [ req (p V.review_for)
             ~child:(Tree [ req (p V.feature) ~child:(feature 3) ]) ]);
    tree_query "W10" watdiv "products with any feature and optional comment"
      (typed V.product [ req (p V.feature); opt (p V.comment) ]);
    tree_query "W11" watdiv "star with filter: cheap offers with validity"
      (typed V.offer
         [ req (p V.price); req (p V.valid_to); req (p V.vendor_p) ]);
    tree_query "W12" watdiv "reviews rated 1 (low end)"
      (typed V.review [ req (p V.rating1) ~child:(Check (lt_int 2)) ]);
    tree_query "W13" watdiv "reviewers with names and their review titles"
      (typed V.person
         [ req (p V.name);
           req (inv V.reviewer) ~child:(Tree [ req (p V.title) ]) ]);
    tree_query "W14" watdiv "products with german review text"
      (typed V.product
         [ req (p V.has_review)
             ~child:(Tree [ req (p V.text) ~child:(Check (lang "de")) ]) ]);
    tree_query "W15" watdiv "offer -> vendor with label (two hops)"
      (typed V.offer
         [ req (p V.vendor_p) ~child:(Tree [ req (p V.label) ]) ]);
    tree_query "W16" watdiv "full review record with optional rating2"
      (typed V.review
         [ req (p V.title); req (p V.text); req (p V.reviewer);
           opt (p V.rating2) ]);
    tree_query "W17" watdiv "products with both feature 1 and feature 2"
      (typed V.product
         [ req (p V.feature) ~child:(feature 1);
           req (p V.feature) ~child:(feature 2) ]);
    tree_query "W18" watdiv "reviewers from DE with their countries"
      (typed V.person
         [ req (p V.country) ~child:(Const (V.country_term "DE")) ]);
    tree_query "W19" watdiv "reviews without a second rating (negated bound)"
      (typed V.review [ req (p V.rating1); absent (p V.rating2) ]);
    tree_query "W20" watdiv "products without reviews (absence)"
      (typed V.product [ req (p V.label); absent (p V.has_review) ]);
    tree_query "W21" watdiv "mid-range numeric window"
      (typed V.product
         [ req (p V.numeric1) ~child:(Check (ge_int 500));
           req (p V.numeric2) ~child:(Check (lt_int 1500)) ]);
    tree_query "W22" watdiv "deep linear: offer to reviewer country"
      (typed V.offer
         [ req (p V.offer_of)
             ~child:
               (Tree
                  [ req (p V.has_review)
                      ~child:
                        (Tree
                           [ req (p V.reviewer)
                               ~child:(Tree [ req (p V.country) ]) ]) ]) ]);
    tree_query "W23" watdiv "entities reviewed by person 0 (constant leaf)"
      [ req (p V.reviewer) ~child:(Const (Term.iri (Bsbm.ns ^ "person/0")));
        req (p V.review_for) ];
    tree_query "W24" watdiv "products with offer by vendor 0"
      (typed V.product
         [ req (inv V.offer_of)
             ~child:
               (Tree
                  [ req (p V.vendor_p)
                      ~child:(Const (Term.iri (Bsbm.ns ^ "vendor/0"))) ]) ]);
    tree_query "W25" watdiv "optional nested: label with optional reviews"
      (typed V.product
         [ req (p V.label);
           opt (p V.has_review) ~child:(Tree [ req (p V.rating1) ]) ]);
    tree_query "W26" watdiv "star: person full record"
      (typed V.person [ req (p V.name); req (p V.country) ]);
    tree_query "W27" watdiv "reviews with ratings at both ends"
      (typed V.review
         [ req (p V.rating1) ~child:(Check (ge_int 9));
           opt (p V.rating2) ~child:(Check (lt_int 3)) ]);
    tree_query "W28" watdiv "producer catalogue (inverse from producer)"
      (typed V.producer
         [ req (p V.label);
           req (inv V.producer_p) ~child:(Tree [ req (p V.label) ]) ]);
    tree_query "W29" watdiv "long chain with constants at the end"
      [ req (p V.offer_of)
          ~child:
            (Tree
               [ req (p V.producer_p)
                   ~child:(Const (Term.iri (Bsbm.ns ^ "producer/1"))) ]) ];
    tree_query "W30" watdiv "triple star with optional comment and reviews"
      (typed V.product
         [ req (p V.label); opt (p V.comment);
           opt (p V.has_review) ~child:(Tree [ req (p V.title) ]) ]);
  ]

(* --- the seven queries beyond SHACL ------------------------------- *)

let var_pred_query id description ~obj =
  (* CONSTRUCT WHERE { ?s ?y <obj> }: variable in property position with a
     fixed object — Proposition 6.2 shows no shape fragment expresses it. *)
  {
    id;
    source = watdiv;
    description;
    template = [ tp (Var "s") (Pvar "y") (Const obj) ];
    where = BGP [ tp (Var "s") (Pvar "y") (Const obj) ];
    expressibility =
      Not_expressible "variable in the property position with fixed object";
  }

let inexpressible_queries =
  [
    var_pred_query "W31" "all edges into feature 1" ~obj:(V.feature_term 1);
    var_pred_query "W32" "all edges into country US"
      ~obj:(V.country_term "US");
    var_pred_query "W33" "all edges into product 0"
      ~obj:(Term.iri (Bsbm.ns ^ "product/0"));
    {
      id = "W34";
      source = watdiv;
      description = "self-loops with variable predicate (?x ?y ?x)";
      template = [ tp (Var "x") (Pvar "y") (Var "x") ];
      where = BGP [ tp (Var "x") (Pvar "y") (Var "x") ];
      expressibility =
        Not_expressible "variable predicate over self-loops (Prop. 6.2)";
    };
    {
      id = "B10";
      source = bsbm;
      description = "products where numeric1 exceeds numeric2 (arithmetic)";
      template =
        [ tp (Var "v") (Pred V.numeric1) (Var "n1");
          tp (Var "v") (Pred V.numeric2) (Var "n2") ];
      where =
        Filter
          ( E_gt (E_var "n1", E_var "n2"),
            BGP
              [ tp (Var "v") (Pred V.numeric1) (Var "n1");
                tp (Var "v") (Pred V.numeric2) (Var "n2") ] );
      expressibility =
        Not_expressible "comparison between two variables (arithmetic)";
    };
    {
      id = "B11";
      source = bsbm;
      description = "review pairs where rating1 equals rating2 (join on value)";
      template =
        [ tp (Var "v") (Pred V.rating1) (Var "n");
          tp (Var "v") (Pred V.rating2) (Var "n") ];
      where =
        BGP
          [ tp (Var "v") (Pred V.rating1) (Var "n");
            tp (Var "v") (Pred V.rating2) (Var "n") ];
      expressibility =
        Not_expressible
          "value join between two properties (beyond eq(E,p) on full sets)";
    };
    {
      id = "B12";
      source = bsbm;
      description = "offers priced at twice the product's numeric1 (arithmetic)";
      template =
        [ tp (Var "o") (Pred V.price) (Var "pr");
          tp (Var "o") (Pred V.offer_of) (Var "prod") ];
      where =
        Filter
          ( E_gt (E_var "pr", E_var "n1"),
            BGP
              [ tp (Var "o") (Pred V.price) (Var "pr");
                tp (Var "o") (Pred V.offer_of) (Var "prod");
                tp (Var "prod") (Pred V.numeric1) (Var "n1") ] );
      expressibility = Not_expressible "arithmetic over joined values";
    };
  ]

let all =
  let tree_b, tree_w =
    List.partition (fun q -> q.source = bsbm) tree_queries
  in
  let inex_b, inex_w =
    List.partition (fun q -> q.source = bsbm) inexpressible_queries
  in
  tree_b @ inex_b @ tree_w @ inex_w

let expressible_count =
  List.length
    (List.filter
       (fun q ->
         match q.expressibility with Shape_fragment _ -> true | _ -> false)
       all)

let inexpressible_count = List.length all - expressible_count

(* ------------------------------------------------------------------ *)
(* Running the survey                                                  *)
(* ------------------------------------------------------------------ *)

let run_construct g q = Sparql.Eval.construct g ~template:q.template q.where

let run_fragment g q =
  match q.expressibility with
  | Shape_fragment { shape; _ } -> Some (Provenance.Engine.fragment g [ shape ])
  | Not_expressible _ -> None

type outcome = {
  query : t;
  image_size : int;
  fragment_size : int option;
  image_in_fragment : bool option;
  exact_match : bool option;
}

let survey g =
  List.map
    (fun q ->
      let image = run_construct g q in
      match run_fragment g q with
      | None ->
          {
            query = q;
            image_size = Graph.cardinal image;
            fragment_size = None;
            image_in_fragment = None;
            exact_match = None;
          }
      | Some fragment ->
          let exact =
            match q.expressibility with
            | Shape_fragment { exact; _ } -> exact
            | Not_expressible _ -> false
          in
          {
            query = q;
            image_size = Graph.cardinal image;
            fragment_size = Some (Graph.cardinal fragment);
            image_in_fragment = Some (Graph.subset image fragment);
            exact_match =
              (if exact then Some (Graph.equal image fragment) else None);
          })
    all

let pp_survey ppf outcomes =
  Format.fprintf ppf
    "@[<v>%-5s %-7s %-13s %9s %9s %5s %s@,"
    "id" "source" "expressible?" "|image|" "|frag|" "ok?" "description";
  List.iter
    (fun o ->
      let expr, frag, ok =
        match o.fragment_size, o.image_in_fragment with
        | Some f, Some contained ->
            let ok =
              match o.exact_match with
              | Some true -> "= ✓"
              | Some false -> "= ✗"
              | None -> if contained then "⊆ ✓" else "⊆ ✗"
            in
            "yes", string_of_int f, ok
        | _ -> "no", "-", "-"
      in
      Format.fprintf ppf "%-5s %-7s %-13s %9d %9s %5s %s@," o.query.id
        o.query.source expr o.image_size frag ok o.query.description)
    outcomes;
  let expressible = List.filter (fun o -> o.fragment_size <> None) outcomes in
  Format.fprintf ppf
    "@,%d of %d benchmark queries expressible as shape fragments (paper: 39 of 46)@]"
    (List.length expressible) (List.length outcomes)
