type t =
  | Iri of Iri.t
  | Blank of string
  | Literal of Literal.t

let iri s = Iri (Iri.of_string s)
let blank label = Blank label
let literal l = Literal l
let str s = Literal (Literal.string s)
let int n = Literal (Literal.int n)
let bool b = Literal (Literal.bool b)

let is_iri = function Iri _ -> true | Blank _ | Literal _ -> false
let is_blank = function Blank _ -> true | Iri _ | Literal _ -> false
let is_literal = function Literal _ -> true | Iri _ | Blank _ -> false
let as_iri = function Iri i -> Some i | Blank _ | Literal _ -> None
let as_literal = function Literal l -> Some l | Iri _ | Blank _ -> None

(* Both short-circuit on a physically shared term: a store's dictionary
   and the graph built from it hand out one copy of each term. *)
let equal a b =
  a == b
  ||
  match a, b with
  | Iri x, Iri y -> Iri.equal x y
  | Blank x, Blank y -> String.equal x y
  | Literal x, Literal y -> Literal.equal x y
  | (Iri _ | Blank _ | Literal _), _ -> false

let rank = function Iri _ -> 0 | Blank _ -> 1 | Literal _ -> 2

let compare a b =
  if a == b then 0
  else
    match a, b with
    | Iri x, Iri y -> Iri.compare x y
    | Blank x, Blank y -> String.compare x y
    | Literal x, Literal y -> Literal.compare x y
    | _ -> Int.compare (rank a) (rank b)

let hash = function
  | Iri i -> Hashtbl.hash (0, Iri.hash i)
  | Blank b -> Hashtbl.hash (1, b)
  | Literal l -> Hashtbl.hash (2, Literal.hash l)

let pp ppf = function
  | Iri i -> Iri.pp ppf i
  | Blank b -> Format.fprintf ppf "_:%s" b
  | Literal l -> Literal.pp ppf l

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
