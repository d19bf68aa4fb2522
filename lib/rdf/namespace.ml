type t = (string * string) list
(* Association list, most recent binding first. *)

let empty = []

let default =
  [ "rdf", Vocab.Rdf.ns;
    "rdfs", Vocab.Rdfs.ns;
    "xsd", Vocab.Xsd.ns;
    "sh", Vocab.Sh.ns;
    "ex", "http://example.org/" ]

let add prefix ns t = (prefix, ns) :: List.remove_assoc prefix t
let bindings t = t

let expand t name =
  match String.index_opt name ':' with
  | None -> None
  | Some i ->
      let prefix = String.sub name 0 i in
      let local = String.sub name (i + 1) (String.length name - i - 1) in
      Option.map (fun ns -> ns ^ local) (List.assoc_opt prefix t)

let node t src =
  let n = String.length src in
  if n > 0 && src.[0] = '<' then
    if n > 1 && src.[n - 1] = '>' then Ok (Term.iri (String.sub src 1 (n - 2)))
    else Error (Printf.sprintf "node %S: IRI lacks its closing '>'" src)
  else Ok (Term.iri (Option.value (expand t src) ~default:src))

let local_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | _ -> false

(* Top-level recursions over explicit arguments, so that a lookup
   allocates no closure. *)
let rec local_chars s j =
  j >= String.length s
  || (local_char (String.unsafe_get s j) && local_chars s (j + 1))

(* [s] from byte [i] on is a local name: empty, or local characters
   that neither start nor end with a dot. *)
let local_from s i =
  i >= String.length s
  || (s.[i] <> '.' && s.[String.length s - 1] <> '.' && local_chars s i)

let rec extends ns s i =
  i >= String.length ns
  || (String.unsafe_get ns i = String.unsafe_get s i && extends ns s (i + 1))

let rec binding_of t s =
  match t with
  | [] -> None
  | ((_, ns) as b) :: rest ->
      let k = String.length ns in
      if k > 0 && k <= String.length s && extends ns s 0 && local_from s k then
        Some b
      else binding_of rest s

let binding t iri = binding_of t (Iri.to_string iri)

let shorten t iri =
  match binding t iri with
  | None -> None
  | Some (prefix, ns) ->
      let s = Iri.to_string iri and k = String.length ns in
      Some (prefix ^ ":" ^ String.sub s k (String.length s - k))

let pp_iri t ppf iri =
  match shorten t iri with
  | Some short -> Format.pp_print_string ppf short
  | None -> Iri.pp ppf iri

let pp_term t ppf term =
  match term with
  | Term.Iri i -> pp_iri t ppf i
  | Term.Blank _ | Term.Literal _ -> Term.pp ppf term
