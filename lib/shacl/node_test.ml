open Rdf

type kind =
  | Iri_kind
  | Blank_kind
  | Literal_kind
  | Blank_or_iri
  | Blank_or_literal
  | Iri_or_literal

type t =
  | Node_kind of kind
  | Datatype of Iri.t
  | Min_exclusive of Literal.t
  | Min_inclusive of Literal.t
  | Max_exclusive of Literal.t
  | Max_inclusive of Literal.t
  | Min_length of int
  | Max_length of int
  | Pattern of { regex : string; flags : string option }
  | Language of string

let kind_satisfied kind term =
  match kind, term with
  | Iri_kind, Term.Iri _ -> true
  | Blank_kind, Term.Blank _ -> true
  | Literal_kind, Term.Literal _ -> true
  | Blank_or_iri, (Term.Blank _ | Term.Iri _) -> true
  | Blank_or_literal, (Term.Blank _ | Term.Literal _) -> true
  | Iri_or_literal, (Term.Iri _ | Term.Literal _) -> true
  | _ -> false

(* The string a length/pattern test inspects: the lexical form of a
   literal, the IRI string of an IRI; blank nodes have none. *)
let string_value = function
  | Term.Literal l -> Some (Literal.lexical l)
  | Term.Iri i -> Some (Iri.to_string i)
  | Term.Blank _ -> None

(* UTF-8 code-point count; length tests should not count bytes. *)
let utf8_length s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

(* Translate the common PCRE-ish constructs of sh:pattern into Str
   syntax.  Supported: literal characters, '.', '*', '+', '?', character
   classes, alternation, grouping, anchors, and the \d \w \s classes.
   This covers the patterns appearing in practice in shapes graphs. *)
let to_str_regex regex =
  let buf = Buffer.create (String.length regex + 8) in
  let n = String.length regex in
  let rec go i in_class =
    if i >= n then ()
    else
      let c = regex.[i] in
      match c with
      | '\\' when i + 1 < n -> (
          let d = regex.[i + 1] in
          (match d with
           | 'd' -> Buffer.add_string buf (if in_class then "0-9" else "[0-9]")
           | 'w' ->
               Buffer.add_string buf
                 (if in_class then "A-Za-z0-9_" else "[A-Za-z0-9_]")
           | 's' ->
               Buffer.add_string buf
                 (if in_class then " \t\n\r" else "[ \t\n\r]")
           | 'D' -> Buffer.add_string buf "[^0-9]"
           | '.' | '*' | '+' | '?' | '[' | ']' | '^' | '$' | '\\' | '/' ->
               Buffer.add_char buf '\\';
               Buffer.add_char buf d
           | '(' | ')' | '|' | '{' | '}' ->
               (* literal in Str when unescaped *)
               Buffer.add_char buf d
           | d -> Buffer.add_char buf d);
          go (i + 2) in_class)
      | '(' when not in_class ->
          Buffer.add_string buf "\\(";
          go (i + 1) in_class
      | ')' when not in_class ->
          Buffer.add_string buf "\\)";
          go (i + 1) in_class
      | '|' when not in_class ->
          Buffer.add_string buf "\\|";
          go (i + 1) in_class
      | '[' ->
          Buffer.add_char buf '[';
          go (i + 1) true
      | ']' ->
          Buffer.add_char buf ']';
          go (i + 1) false
      | c ->
          Buffer.add_char buf c;
          go (i + 1) in_class
  in
  go 0 false;
  Buffer.contents buf

(* Compiled patterns, keyed by (regex, case-insensitive).  Compiling
   costs some twenty matches, and a schema tests few distinct patterns
   against many nodes.  The table is per domain because engine and
   incremental-build workers test patterns concurrently; it is emptied
   when full, which bounds it without bookkeeping. *)
let regex_cache_bound = 64

let regex_cache : (string * bool, Str.regexp) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let compiled_regex ~regex ~case_insensitive =
  let cache = Domain.DLS.get regex_cache in
  let key = regex, case_insensitive in
  match Hashtbl.find_opt cache key with
  | Some re -> re
  | None ->
      let translated = to_str_regex regex in
      let re =
        if case_insensitive then Str.regexp_case_fold translated
        else Str.regexp translated
      in
      if Hashtbl.length cache >= regex_cache_bound then Hashtbl.reset cache;
      Hashtbl.add cache key re;
      re

let regex_matches ~regex ~flags s =
  let case_insensitive =
    match flags with Some f -> String.contains f 'i' | None -> false
  in
  let re = compiled_regex ~regex ~case_insensitive in
  (* sh:pattern means "matches somewhere" unless anchored. *)
  try
    ignore (Str.search_forward re s 0);
    true
  with Not_found -> false

let satisfies t term =
  match t with
  | Node_kind kind -> kind_satisfied kind term
  | Datatype dt -> (
      match term with
      | Term.Literal l -> Iri.equal (Literal.datatype l) dt
      | Term.Iri _ | Term.Blank _ -> false)
  | Min_exclusive m -> (
      match term with
      | Term.Literal l -> Literal.lt m l
      | _ -> false)
  | Min_inclusive m -> (
      match term with
      | Term.Literal l -> Literal.leq m l
      | _ -> false)
  | Max_exclusive m -> (
      match term with
      | Term.Literal l -> Literal.lt l m
      | _ -> false)
  | Max_inclusive m -> (
      match term with
      | Term.Literal l -> Literal.leq l m
      | _ -> false)
  | Min_length k -> (
      match string_value term with
      | Some s -> utf8_length s >= k
      | None -> false)
  | Max_length k -> (
      match string_value term with
      | Some s -> utf8_length s <= k
      | None -> false)
  | Pattern { regex; flags } -> (
      match string_value term with
      | Some s -> regex_matches ~regex ~flags s
      | None -> false)
  | Language range -> (
      match term with
      | Term.Literal l -> Literal.language_matches l ~range
      | Term.Iri _ | Term.Blank _ -> false)

let equal a b =
  match a, b with
  | Node_kind x, Node_kind y -> x = y
  | Datatype x, Datatype y -> Iri.equal x y
  | Min_exclusive x, Min_exclusive y
  | Min_inclusive x, Min_inclusive y
  | Max_exclusive x, Max_exclusive y
  | Max_inclusive x, Max_inclusive y -> Literal.equal x y
  | Min_length x, Min_length y | Max_length x, Max_length y -> x = y
  | Pattern x, Pattern y -> x.regex = y.regex && x.flags = y.flags
  | Language x, Language y -> String.equal x y
  | _ -> false

let compare = Stdlib.compare

let kind_to_string = function
  | Iri_kind -> "iri"
  | Blank_kind -> "blank"
  | Literal_kind -> "literal"
  | Blank_or_iri -> "blankOrIri"
  | Blank_or_literal -> "blankOrLiteral"
  | Iri_or_literal -> "iriOrLiteral"

let kind_of_string = function
  | "iri" -> Some Iri_kind
  | "blank" -> Some Blank_kind
  | "literal" -> Some Literal_kind
  | "blankOrIri" -> Some Blank_or_iri
  | "blankOrLiteral" -> Some Blank_or_literal
  | "iriOrLiteral" -> Some Iri_or_literal
  | _ -> None

let pp_with pp_iri ppf t =
  let lit ppf l = Literal.pp ppf l in
  match t with
  | Node_kind k -> Format.fprintf ppf "test(kind = %s)" (kind_to_string k)
  | Datatype dt -> Format.fprintf ppf "test(datatype = %a)" pp_iri dt
  | Min_exclusive l -> Format.fprintf ppf "test(minExclusive = %a)" lit l
  | Min_inclusive l -> Format.fprintf ppf "test(minInclusive = %a)" lit l
  | Max_exclusive l -> Format.fprintf ppf "test(maxExclusive = %a)" lit l
  | Max_inclusive l -> Format.fprintf ppf "test(maxInclusive = %a)" lit l
  | Min_length k -> Format.fprintf ppf "test(minLength = %d)" k
  | Max_length k -> Format.fprintf ppf "test(maxLength = %d)" k
  | Pattern { regex; flags = None } ->
      Format.fprintf ppf "test(pattern = \"%s\")" (String.escaped regex)
  | Pattern { regex; flags = Some f } ->
      Format.fprintf ppf "test(pattern = \"%s\", flags = \"%s\")"
        (String.escaped regex) (String.escaped f)
  | Language range -> Format.fprintf ppf "test(lang = \"%s\")" range

let pp ppf t = pp_with Iri.pp ppf t
