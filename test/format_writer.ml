(* The Format-based Turtle writer that [Rdf.Turtle.to_string] replaced,
   kept verbatim as the oracle of the writer properties: it regroups the
   graph by subject into a map and prints every term through [Format],
   shortening each IRI occurrence again. *)

open Rdf

let to_string ?(prefixes = Namespace.default) g =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let used = ref [] in
  let pp_iri ppf iri =
    match Namespace.shorten prefixes iri with
    | Some short ->
        let prefix = List.hd (String.split_on_char ':' short) in
        if not (List.mem prefix !used) then used := prefix :: !used;
        Format.pp_print_string ppf short
    | None -> Iri.pp ppf iri
  in
  let pp_term ppf = function
    | Term.Iri i -> pp_iri ppf i
    | (Term.Blank _ | Term.Literal _) as t -> Term.pp ppf t
  in
  let body = Buffer.create 1024 in
  let bppf = Format.formatter_of_buffer body in
  let by_subject =
    Graph.fold
      (fun t acc ->
        let s = Triple.subject t in
        let existing = Option.value (Term.Map.find_opt s acc) ~default:[] in
        Term.Map.add s (t :: existing) acc)
      g Term.Map.empty
  in
  Term.Map.iter
    (fun s triples ->
      Format.fprintf bppf "@[<v 2>%a" pp_term s;
      let triples = List.rev triples in
      List.iteri
        (fun i t ->
          if i > 0 then Format.fprintf bppf " ;@ ";
          Format.fprintf bppf " %a %a" pp_iri (Triple.predicate t) pp_term
            (Triple.object_ t))
        triples;
      Format.fprintf bppf " .@]@.")
    by_subject;
  Format.pp_print_flush bppf ();
  List.iter
    (fun prefix ->
      match List.assoc_opt prefix (Namespace.bindings prefixes) with
      | Some ns -> Format.fprintf ppf "@@prefix %s: <%s> .@." prefix ns
      | None -> ())
    (List.sort String.compare !used);
  if !used <> [] then Format.pp_print_newline ppf ();
  Format.pp_print_flush ppf ();
  Buffer.add_buffer buf body;
  Buffer.contents buf
