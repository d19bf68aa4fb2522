(* Hash-consed term dictionary: Term.t <-> dense int ids.

   Ids are assigned by rank in Term.compare order when built with
   [of_sorted] or renumbered with [sort], so id comparison agrees with
   term comparison and ordered id iteration decodes to term-ordered
   output.  [term] always returns
   the single stored copy of a term, so decoded terms are physically
   shared (hash-consing). *)

module H = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

type t = {
  mutable terms : Term.t array;
  mutable n : int;
  ids : int H.t;
  mutable finds : int;  (* term -> id probes, including misses *)
}

let dummy = Term.Blank "\x00dict-slot"

let create ?(hint = 64) () =
  { terms = Array.make (max 1 hint) dummy; n = 0; ids = H.create hint; finds = 0 }

let size t = t.n

let term t i =
  if i < 0 || i >= t.n then invalid_arg "Dict.term: id out of range";
  t.terms.(i)

let find t x =
  t.finds <- t.finds + 1;
  H.find_opt t.ids x

let intern t x =
  match H.find_opt t.ids x with
  | Some i -> i
  | None ->
      if t.n = Array.length t.terms then begin
        let grown = Array.make (max 1 (2 * t.n)) dummy in
        Array.blit t.terms 0 grown 0 t.n;
        t.terms <- grown
      end;
      let i = t.n in
      t.terms.(i) <- x;
      t.n <- i + 1;
      H.add t.ids x i;
      i

let sort t =
  let order = Array.init t.n Fun.id in
  let terms = t.terms in
  Array.stable_sort (fun i j -> Term.compare terms.(i) terms.(j)) order;
  let rank = Array.make t.n 0 in
  Array.iteri (fun k i -> rank.(i) <- k) order;
  t.terms <- Array.map (fun i -> terms.(i)) order;
  H.filter_map_inplace (fun _ i -> Some rank.(i)) t.ids;
  rank

let of_sorted terms =
  let n = Array.length terms in
  let t =
    { terms = Array.copy terms; n; ids = H.create (2 * n + 1); finds = 0 }
  in
  Array.iteri (fun i x -> H.add t.ids x i) terms;
  t

let finds t = t.finds
