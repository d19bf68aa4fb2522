open Rdf
open Shacl

type annotation = { triple : Triple.t; witnesses : Shape.t list }

let explain ?(schema = Schema.empty) g v phi =
  let conforms = Conformance.memoized schema g in
  let tags : (Triple.t, Shape.t list) Hashtbl.t = Hashtbl.create 64 in
  let visited : (Term.t * Shape.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let record triple witness =
    let existing = Option.value (Hashtbl.find_opt tags triple) ~default:[] in
    if not (List.exists (Shape.equal witness) existing) then
      Hashtbl.replace tags triple (witness :: existing)
  in
  let rec go v phi =
    if conforms v phi && not (Hashtbl.mem visited (v, phi)) then begin
      Hashtbl.add visited (v, phi) ();
      let local, obligations = Neighborhood.local_parts ~schema ~conforms g v phi in
      Graph.iter (fun t -> record t phi) local;
      List.iter
        (fun (x, psi) -> if conforms x psi then go x psi)
        obligations
    end
  in
  go v (Shape.nnf phi);
  Hashtbl.fold
    (fun triple witnesses acc ->
      { triple; witnesses = List.rev witnesses } :: acc)
    tags []
  |> List.sort (fun a b -> Triple.compare a.triple b.triple)

let explain_why_not ?(schema = Schema.empty) g v phi =
  if Conformance.conforms schema g v phi then None
  else Some (explain ~schema g v (Shape.Not phi))

let pp ppf annotations =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun { triple; witnesses } ->
      Format.fprintf ppf "%a@,    because of: %a@," Triple.pp triple
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
           (fun ppf s ->
             Format.pp_print_string ppf (Shape_syntax.print s)))
        witnesses)
    annotations;
  Format.fprintf ppf "@]"
