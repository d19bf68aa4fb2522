type t = {
  lexical : string;
  datatype : Iri.t;
  lang : string option;  (* Some _ implies datatype = rdf:langString *)
}

let make ?lang ?datatype lexical =
  match lang, datatype with
  | None, None -> { lexical; datatype = Vocab.Xsd.string; lang = None }
  | None, Some dt -> { lexical; datatype = dt; lang = None }
  | Some tag, dt ->
      (match dt with
       | Some dt when not (Iri.equal dt Vocab.Rdf.lang_string) ->
           invalid_arg "Literal.make: language tag with non-langString datatype"
       | _ -> ());
      if tag = "" then invalid_arg "Literal.make: empty language tag";
      { lexical;
        datatype = Vocab.Rdf.lang_string;
        lang = Some (String.lowercase_ascii tag) }

let string s = make s
let lang_string s ~lang = make ~lang s
let int n = make ~datatype:Vocab.Xsd.integer (string_of_int n)

let float x =
  (* OCaml prints e.g. 1. where XSD wants 1.0; normalize. *)
  let s = Printf.sprintf "%.17g" x in
  let s =
    if String.contains s '.' || String.contains s 'e'
       || String.contains s 'n' (* nan/inf *) || String.contains s 'i'
    then s
    else s ^ ".0"
  in
  make ~datatype:Vocab.Xsd.double s

let bool b = make ~datatype:Vocab.Xsd.boolean (string_of_bool b)
let date_time s = make ~datatype:Vocab.Xsd.date_time s
let lexical l = l.lexical
let datatype l = l.datatype
let lang l = l.lang

let equal a b =
  String.equal a.lexical b.lexical
  && Iri.equal a.datatype b.datatype
  && Option.equal String.equal a.lang b.lang

let compare a b =
  let c = Iri.compare a.datatype b.datatype in
  if c <> 0 then c
  else
    let c = Option.compare String.compare a.lang b.lang in
    if c <> 0 then c else String.compare a.lexical b.lexical

let hash l = Hashtbl.hash (l.lexical, Iri.to_string l.datatype, l.lang)

type value =
  | Num of float
  | Str of string
  | Bool of bool
  | Time of string
  | Unknown

let value l =
  let dt = l.datatype in
  if Iri.equal dt Vocab.Xsd.string || Iri.equal dt Vocab.Rdf.lang_string then
    Str l.lexical
  else if Vocab.Xsd.numeric dt then
    match float_of_string_opt (String.trim l.lexical) with
    | Some x -> Num x
    | None -> Unknown
  else if Iri.equal dt Vocab.Xsd.boolean then
    match String.trim l.lexical with
    | "true" | "1" -> Bool true
    | "false" | "0" -> Bool false
    | _ -> Unknown
  else if Iri.equal dt Vocab.Xsd.date_time || Iri.equal dt Vocab.Xsd.date then
    Time l.lexical
  else Unknown

type order = Less | Equal | Greater | Unordered | Incomparable

(* One parse per operand: [lt], [leq] and [comparable] all read this. *)
let order a b =
  let of_compare c = if c < 0 then Less else if c = 0 then Equal else Greater in
  match value a, value b with
  | Num x, Num y ->
      if x < y then Less
      else if x = y then Equal
      else if x > y then Greater
      else Unordered (* NaN *)
  | Str x, Str y | Time x, Time y -> of_compare (String.compare x y)
  | Bool x, Bool y -> of_compare (Bool.compare x y)
  | _ -> Incomparable

let lt a b = order a b = Less
let leq a b = match order a b with Less | Equal -> true | _ -> false
let comparable a b = order a b <> Incomparable

let same_language a b =
  match a.lang, b.lang with
  | Some la, Some lb -> String.equal la lb
  | _ -> false

let language_matches l ~range =
  match l.lang with
  | None -> false
  | Some tag ->
      let range = String.lowercase_ascii range in
      if String.equal range "*" then true
      else
        String.equal tag range
        || String.length tag > String.length range
           && String.sub tag 0 (String.length range + 1) = range ^ "-"

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let pp ppf l =
  match l.lang with
  | Some tag -> Format.fprintf ppf "\"%s\"@@%s" (escape_string l.lexical) tag
  | None ->
      if Iri.equal l.datatype Vocab.Xsd.string then
        Format.fprintf ppf "\"%s\"" (escape_string l.lexical)
      else
        Format.fprintf ppf "\"%s\"^^%a" (escape_string l.lexical) Iri.pp
          l.datatype

let canonical_int l =
  if Vocab.Xsd.numeric l.datatype then int_of_string_opt (String.trim l.lexical)
  else None
