open Rdf

type result = { focus : Term.t; shape_name : Term.t; conforms : bool }
type report = { conforms : bool; results : result list }

(* Recognize the real-SHACL target forms of Section 4 so that target
   evaluation does not have to scan all nodes:
     hasValue(c)                  node target
     >=1 type/subClassOf* . hasValue(c)   class target
     >=1 p  . T                   subjects-of target
     >=1 p- . T                   objects-of target *)
let rec fast_targets g target =
  match target with
  | Shape.Has_value c -> Some (Term.Set.singleton c)
  | Shape.Ge
      ( 1,
        Rdf.Path.Seq (Rdf.Path.Prop ty, Rdf.Path.Star (Rdf.Path.Prop sub)),
        Shape.Has_value cls )
    when Iri.equal ty Vocab.Rdf.type_ && Iri.equal sub Vocab.Rdfs.sub_class_of
    ->
      (* All nodes typed with cls or a transitive subclass of cls. *)
      let classes =
        Rdf.Path.eval_inv g (Rdf.Path.Star (Rdf.Path.Prop sub)) (* to cls *)
          cls
      in
      Some
        (Term.Set.fold
           (fun c acc -> Term.Set.union acc (Graph.subjects g ty c))
           classes Term.Set.empty)
  | Shape.Ge (1, Rdf.Path.Prop p, Shape.Top) ->
      Some
        (List.fold_left
           (fun acc t -> Term.Set.add (Triple.subject t) acc)
           Term.Set.empty (Graph.predicate_triples g p))
  | Shape.Ge (1, Rdf.Path.Inv (Rdf.Path.Prop p), Shape.Top) ->
      Some
        (List.fold_left
           (fun acc t -> Term.Set.add (Triple.object_ t) acc)
           Term.Set.empty (Graph.predicate_triples g p))
  | Shape.Or parts ->
      List.fold_left
        (fun acc part ->
          match acc with
          | None -> None
          | Some acc -> (
              match fast_targets g part with
              | None -> None
              | Some s -> Some (Term.Set.union acc s)))
        (Some Term.Set.empty) parts
  | Shape.Bottom -> Some Term.Set.empty
  | _ -> None

(* The predicates [fast_targets] reads, form by form; [None] for a form
   it does not answer (any change may move the fallback's scan). *)
let rec target_reads target =
  match target with
  | Shape.Has_value _ | Shape.Bottom -> Some Iri.Set.empty
  | Shape.Ge
      ( 1,
        Rdf.Path.Seq (Rdf.Path.Prop ty, Rdf.Path.Star (Rdf.Path.Prop sub)),
        Shape.Has_value _ )
    when Iri.equal ty Vocab.Rdf.type_ && Iri.equal sub Vocab.Rdfs.sub_class_of
    ->
      Some (Iri.Set.of_list [ ty; sub ])
  | Shape.Ge (1, Rdf.Path.Prop p, Shape.Top)
  | Shape.Ge (1, Rdf.Path.Inv (Rdf.Path.Prop p), Shape.Top) ->
      Some (Iri.Set.singleton p)
  | Shape.Or parts ->
      List.fold_left
        (fun acc part ->
          match acc, target_reads part with
          | Some acc, Some s -> Some (Iri.Set.union acc s)
          | _ -> None)
        (Some Iri.Set.empty) parts
  | _ -> None

let target_nodes ?budget h g (def : Schema.def) =
  match fast_targets g def.target with
  | Some nodes -> nodes
  | None -> Conformance.conforming_nodes ?budget h g def.target

let validate ?budget h g =
  let h = Schema.unfold h in
  let results =
    List.concat_map
      (fun (def : Schema.def) ->
        let check = Conformance.checker ?budget h g def.shape in
        Term.Set.fold
          (fun focus acc ->
            { focus; shape_name = def.name; conforms = check focus } :: acc)
          (target_nodes ?budget h g def)
          [])
      (Schema.defs h)
  in
  { conforms = List.for_all (fun (r : result) -> r.conforms) results; results }

let conforms ?budget h g =
  let h = Schema.unfold h in
  List.for_all
    (fun (def : Schema.def) ->
      let check = Conformance.checker ?budget h g def.shape in
      Term.Set.for_all check (target_nodes ?budget h g def))
    (Schema.defs h)

let violations report = List.filter (fun (r : result) -> not r.conforms) report.results

let pp_report ppf report =
  if report.conforms then
    Format.fprintf ppf "conforms (%d checks)" (List.length report.results)
  else begin
    let bad = violations report in
    Format.fprintf ppf "@[<v>does not conform: %d violation(s)@,"
      (List.length bad);
    List.iter
      (fun r ->
        Format.fprintf ppf "  node %a violates shape %a@," Term.pp r.focus
          Term.pp r.shape_name)
      bad;
    Format.fprintf ppf "@]"
  end
