open Rdf
open Shacl

type conflict = { code : Diagnostic.code; message : string }

(* ------------------------------------------------------------------ *)
(* Node-test contradictions                                           *)
(* ------------------------------------------------------------------ *)

(* The set of term kinds a node kind admits, as (iri, blank, literal). *)
let kind_mask = function
  | Node_test.Iri_kind -> (true, false, false)
  | Node_test.Blank_kind -> (false, true, false)
  | Node_test.Literal_kind -> (false, false, true)
  | Node_test.Blank_or_iri -> (true, true, false)
  | Node_test.Blank_or_literal -> (false, true, true)
  | Node_test.Iri_or_literal -> (true, false, true)

let admits_literal k =
  let _, _, l = kind_mask k in
  l

(* Tests that can only be satisfied by a literal. *)
let literal_only = function
  | Node_test.Datatype _ | Node_test.Min_exclusive _ | Node_test.Min_inclusive _
  | Node_test.Max_exclusive _ | Node_test.Max_inclusive _
  | Node_test.Language _ ->
      true
  | _ -> false

(* Whether two node tests are contradictory: no term can satisfy both. *)
let test_conflict t1 t2 =
  match t1, t2 with
  | Node_test.Node_kind k1, Node_test.Node_kind k2 ->
      let i1, b1, l1 = kind_mask k1 and i2, b2, l2 = kind_mask k2 in
      not ((i1 && i2) || (b1 && b2) || (l1 && l2))
  | Node_test.Node_kind k, t | t, Node_test.Node_kind k ->
      (literal_only t && not (admits_literal k))
      || (* length and pattern tests inspect a string value, which blank
            nodes do not have *)
      (k = Node_test.Blank_kind
       &&
       match t with
       | Node_test.Min_length _ | Node_test.Max_length _ | Node_test.Pattern _
         ->
           true
       | _ -> false)
  | Node_test.Datatype d1, Node_test.Datatype d2 -> not (Iri.equal d1 d2)
  | Node_test.Language _, Node_test.Datatype d
  | Node_test.Datatype d, Node_test.Language _ ->
      not (Iri.equal d Vocab.Rdf.lang_string)
  | Node_test.Min_length a, Node_test.Max_length b
  | Node_test.Max_length b, Node_test.Min_length a ->
      a > b
  | Node_test.Min_inclusive x, Node_test.Max_inclusive y
  | Node_test.Max_inclusive y, Node_test.Min_inclusive x ->
      Literal.lt y x
  | Node_test.Min_inclusive x, Node_test.Max_exclusive y
  | Node_test.Max_exclusive y, Node_test.Min_inclusive x
  | Node_test.Min_exclusive x, Node_test.Max_inclusive y
  | Node_test.Max_inclusive y, Node_test.Min_exclusive x
  | Node_test.Min_exclusive x, Node_test.Max_exclusive y
  | Node_test.Max_exclusive y, Node_test.Min_exclusive x ->
      Literal.leq y x
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Closed-set analysis of paths                                       *)
(* ------------------------------------------------------------------ *)

(* Whether a path can relate a node to itself without traversing any
   edge. *)
let rec nullable = function
  | Rdf.Path.Star _ | Rdf.Path.Opt _ -> true
  | Rdf.Path.Seq (a, b) -> nullable a && nullable b
  | Rdf.Path.Alt (a, b) -> nullable a || nullable b
  | Rdf.Path.Prop _ | Rdf.Path.Inv _ -> false

(* [Some ps] when every way of traversing the path starts with an
   outgoing edge whose predicate is in [ps]; [None] when the path may
   start otherwise (inverse edge, or no edge at all). *)
let rec first_out_props = function
  | Rdf.Path.Prop p -> Some (Iri.Set.singleton p)
  | Rdf.Path.Seq (a, b) -> (
      match first_out_props a with
      | Some ps -> Some ps
      | None -> if nullable a then None else first_out_props b)
  | Rdf.Path.Alt (a, b) -> (
      match first_out_props a, first_out_props b with
      | Some pa, Some pb -> Some (Iri.Set.union pa pb)
      | _ -> None)
  | Rdf.Path.Inv _ | Rdf.Path.Star _ | Rdf.Path.Opt _ -> None

(* The outgoing predicates a conjunct forces the focus node to have. *)
let forced_out_props = function
  | Shape.Ge (n, e, _) when n >= 1 -> first_out_props e
  | Shape.Eq (Shape.Id, p) -> Some (Iri.Set.singleton p)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Simplification                                                     *)
(* ------------------------------------------------------------------ *)

(* Inline every [Has_shape] through the (acyclic) schema. *)
let rec resolve schema phi =
  match phi with
  | Shape.Has_shape s -> resolve schema (Schema.def_shape schema s)
  | _ -> Shape.map_children (resolve schema) phi

let pp_iris ppf ps =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
    Iri.pp ppf (Iri.Set.elements ps)

(* One contradiction between two conjuncts, if any. *)
let pair_conflict a b =
  let unsat fmt =
    Format.kasprintf
      (fun message -> Some { code = Diagnostic.Unsatisfiable_shape; message })
      fmt
  in
  match a, b with
  | Shape.Not a', b when Shape.equal a' b ->
      unsat "conjunction of %a and its negation" Shape.pp b
  | a, Shape.Not b' when Shape.equal a b' ->
      unsat "conjunction of %a and its negation" Shape.pp a
  | Shape.Has_value c, Shape.Has_value c' when not (Term.equal c c') ->
      unsat "conflicting constants hasValue(%a) and hasValue(%a)" Term.pp c
        Term.pp c'
  | Shape.Has_value c, Shape.Test t | Shape.Test t, Shape.Has_value c ->
      if Node_test.satisfies t c then None
      else unsat "required value %a fails sibling %a" Term.pp c Node_test.pp t
  | Shape.Has_value c, Shape.Not (Shape.Test t)
  | Shape.Not (Shape.Test t), Shape.Has_value c ->
      if Node_test.satisfies t c then
        unsat "required value %a satisfies negated %a" Term.pp c Node_test.pp t
      else None
  | Shape.Test t1, Shape.Test t2 ->
      if test_conflict t1 t2 then
        unsat "contradictory node tests %a and %a" Node_test.pp t1 Node_test.pp
          t2
      else None
  | Shape.Ge (n, e, phi), Shape.Le (m, e', psi)
  | Shape.Le (m, e', psi), Shape.Ge (n, e, phi)
    when Rdf.Path.equal e e' && n > m
         && (Shape.equal psi Shape.Top || Shape.equal psi phi) ->
      Some
        { code = Diagnostic.Count_conflict;
          message =
            Format.asprintf
              "cannot require at least %d and admit at most %d values on \
               path %a"
              n m Rdf.Path.pp e }
  | Shape.Closed allowed, other | other, Shape.Closed allowed -> (
      match forced_out_props other with
      | Some forced when Iri.Set.disjoint forced allowed ->
          Some
            { code = Diagnostic.Closed_conflict;
              message =
                Format.asprintf
                  "%a requires an outgoing edge with predicate %a, outside \
                   the closed property set"
                  Shape.pp other pp_iris forced }
      | _ -> None)
  | _ -> None

let rec pairwise_conflicts = function
  | [] -> []
  | a :: rest ->
      List.filter_map (fun b -> pair_conflict a b) rest
      @ pairwise_conflicts rest

let flatten_and l =
  List.concat_map
    (function Shape.And inner -> inner | Shape.Top -> [] | s -> [ s ])
    l

let simplify schema phi =
  let found = ref [] in
  let rec simp phi =
    match phi with
    | Shape.And l ->
        let flat = flatten_and (List.map simp l) in
        let conflicts = pairwise_conflicts flat in
        found := conflicts @ !found;
        if conflicts <> [] then Shape.Bottom else Shape.and_ flat
    | Shape.Or l -> Shape.or_ (List.map simp l)
    | Shape.Not psi -> Shape.not_ (simp psi)
    | Shape.Ge (n, e, psi) ->
        if n = 0 then Shape.Top
        else
          let psi = simp psi in
          if Shape.equal psi Shape.Bottom then Shape.Bottom
          else Shape.Ge (n, e, psi)
    | Shape.Le (n, _, _) when n < 0 -> Shape.Bottom
    | Shape.Le (n, e, psi) -> Shape.Le (n, e, simp psi)
    | Shape.Forall (e, psi) -> Shape.Forall (e, simp psi)
    | atomic -> atomic
  in
  let simplified = simp (Shape.nnf (resolve schema phi)) in
  (simplified, List.sort_uniq Stdlib.compare !found)

let conflicts schema phi = snd (simplify schema phi)

let is_unsatisfiable schema phi =
  Shape.equal (fst (simplify schema phi)) Shape.Bottom
