type error = { file : string option; line : int; message : string }

let pp_error ppf e =
  match e.file with
  | Some f -> Format.fprintf ppf "%s: line %d: %s" f e.line e.message
  | None -> Format.fprintf ppf "line %d: %s" e.line e.message

exception Error of error

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Iriref of string           (* contents of <...>, unresolved *)
  | Pname of string            (* prefixed name, e.g. "rdf:type" or ":x" *)
  | Pname_ns of string         (* "rdf:" as it appears after @prefix *)
  | Blank_label of string      (* label after _: *)
  | String_lit of string
  | Lang_tag of string
  | Integer_lit of string
  | Decimal_lit of string
  | Double_lit of string
  | Kw_prefix                  (* @prefix or PREFIX *)
  | Kw_base
  | Kw_a
  | Kw_true
  | Kw_false
  | Dot
  | Semicolon
  | Comma
  | Lbracket
  | Rbracket
  | Lparen
  | Rparen
  | Carets                     (* ^^ *)
  | Eof

(* The lexer reads bytes of [src] in place: [at_end] and [cur] replace
   an option-returning peek, and the scans below walk indexes, so no
   character costs an allocation.  [line] counts the newlines passed. *)
type lexer = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
}

let fail lx message = raise (Error { file = None; line = lx.line; message })

let at_end lx = lx.pos >= lx.len

(* The current byte; only when not [at_end]. *)
let cur lx = String.unsafe_get lx.src lx.pos
let looking_at lx c = lx.pos < lx.len && cur lx = c

let advance lx =
  if looking_at lx '\n' then lx.line <- lx.line + 1;
  lx.pos <- lx.pos + 1

let skip_ws lx =
  let src = lx.src and len = lx.len in
  let i = ref lx.pos and line = ref lx.line and more = ref true in
  while !more && !i < len do
    match String.unsafe_get src !i with
    | ' ' | '\t' | '\r' -> incr i
    | '\n' -> incr i; incr line
    | '#' ->
        (* a comment runs to the newline, which the loop then counts *)
        while !i < len && String.unsafe_get src !i <> '\n' do incr i done
    | _ -> more := false
  done;
  lx.pos <- !i;
  lx.line <- !line

let is_pn_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
  | c -> Char.code c >= 128 (* permissive UTF-8 continuation *)

let is_word_char c = is_pn_char c || c = ':' || c = '%'
let is_digit = function '0' .. '9' -> true | _ -> false

let is_tag_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> true
  | _ -> false

(* None of the predicates above accepts a newline, so the scan leaves
   [line] alone. *)
let skip_while lx pred =
  while lx.pos < lx.len && pred (cur lx) do lx.pos <- lx.pos + 1 done

let take_while lx pred =
  let start = lx.pos in
  skip_while lx pred;
  String.sub lx.src start (lx.pos - start)

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let read_unicode_escape lx n =
  let code = ref 0 in
  for _ = 1 to n do
    if (not (at_end lx)) && hex_value (cur lx) >= 0 then begin
      code := (!code * 16) + hex_value (cur lx);
      advance lx
    end
    else fail lx "invalid \\u escape"
  done;
  (* Only Unicode scalar values are representable: reject anything past
     U+10FFFF and the surrogate range. *)
  if !code > 0x10FFFF || (!code >= 0xD800 && !code <= 0xDFFF) then
    fail lx (Printf.sprintf "\\u escape U+%X is not a Unicode scalar value"
               !code);
  !code

let read_escape lx buf =
  advance lx;
  (* consume backslash *)
  let simple c = advance lx; Buffer.add_char buf c in
  if at_end lx then fail lx "invalid escape sequence"
  else
    match cur lx with
    | 't' -> simple '\t'
    | 'n' -> simple '\n'
    | 'r' -> simple '\r'
    | 'b' -> simple '\b'
    | 'f' -> simple '\012'
    | '"' -> simple '"'
    | '\'' -> simple '\''
    | '\\' -> simple '\\'
    | 'u' -> advance lx; add_utf8 buf (read_unicode_escape lx 4)
    | 'U' -> advance lx; add_utf8 buf (read_unicode_escape lx 8)
    | _ -> fail lx "invalid escape sequence"

(* The text from [lx.pos] up to the first byte [stop] accepts, sliced
   out of the source when that byte is [close] (consumed); otherwise
   [None], with [lx.pos] at the byte.  The fast path of IRIs and short
   strings: only an escape, a newline or the end of input leaves it for
   the buffered reader. *)
let slice_to lx ~close ~stop =
  let start = lx.pos in
  skip_while lx (fun c -> not (stop c));
  if looking_at lx close then begin
    lx.pos <- lx.pos + 1;
    Some (String.sub lx.src start (lx.pos - 1 - start))
  end
  else None

let read_string lx quote =
  (* Called with lx.pos on the opening quote. *)
  advance lx;
  let long =
    lx.pos + 1 < lx.len
    && lx.src.[lx.pos] = quote
    && lx.src.[lx.pos + 1] = quote
  in
  if long then begin
    advance lx;
    advance lx
  end;
  let start = lx.pos in
  let fast =
    if long then None
    else
      slice_to lx ~close:quote ~stop:(fun c ->
          c = quote || c = '\\' || c = '\n' || c = '\r')
  in
  match fast with
  | Some s -> s
  | None ->
      let buf = Buffer.create 16 in
      Buffer.add_substring buf lx.src start (lx.pos - start);
      let at_long_close () =
        lx.pos + 2 < lx.len
        && lx.src.[lx.pos] = quote
        && lx.src.[lx.pos + 1] = quote
        && lx.src.[lx.pos + 2] = quote
      in
      let rec go () =
        if at_end lx then fail lx "unterminated string literal"
        else
          match cur lx with
          | '\\' -> read_escape lx buf; go ()
          | c when c = quote && not long -> advance lx
          | c when c = quote && at_long_close () ->
              advance lx; advance lx; advance lx
          | c ->
              if (not long) && (c = '\n' || c = '\r') then
                fail lx "newline in string literal"
              else begin
                advance lx;
                Buffer.add_char buf c;
                go ()
              end
      in
      go ();
      Buffer.contents buf

let read_iriref lx =
  (* Called with lx.pos past the '<'. *)
  let start = lx.pos in
  match
    slice_to lx ~close:'>' ~stop:(fun c -> c = '>' || c = '\\' || c = '\n')
  with
  | Some raw -> raw
  | None ->
      let buf = Buffer.create 16 in
      Buffer.add_substring buf lx.src start (lx.pos - start);
      let rec go () =
        if at_end lx then fail lx "unterminated IRI"
        else
          match cur lx with
          | '>' -> advance lx
          | '\\' -> read_escape lx buf; go ()
          | c ->
              advance lx;
              Buffer.add_char buf c;
              go ()
      in
      go ();
      Buffer.contents buf

let read_number lx =
  let start = lx.pos in
  if looking_at lx '+' || looking_at lx '-' then advance lx;
  skip_while lx is_digit;
  let has_dot =
    looking_at lx '.'
    && lx.pos + 1 < lx.len
    && is_digit lx.src.[lx.pos + 1]
    && begin
         advance lx;
         skip_while lx is_digit;
         true
       end
  in
  let has_exp =
    (looking_at lx 'e' || looking_at lx 'E')
    && begin
         advance lx;
         if looking_at lx '+' || looking_at lx '-' then advance lx;
         skip_while lx is_digit;
         true
       end
  in
  let text = String.sub lx.src start (lx.pos - start) in
  if has_exp then Double_lit text
  else if has_dot then Decimal_lit text
  else Integer_lit text

let strip_trailing_dot lx s =
  (* A pname like "ex:x." followed by end-of-statement: the final dot is
     punctuation, not part of the name.  Push it back. *)
  if s <> "" && s.[String.length s - 1] = '.' then begin
    lx.pos <- lx.pos - 1;
    String.sub s 0 (String.length s - 1)
  end
  else s

let next_token lx =
  skip_ws lx;
  if at_end lx then Eof
  else
    match cur lx with
    | '<' ->
        advance lx;
        Iriref (read_iriref lx)
    | '"' -> String_lit (read_string lx '"')
    | '\'' -> String_lit (read_string lx '\'')
    | '@' ->
        advance lx;
        let word = take_while lx is_tag_char in
        (match String.lowercase_ascii word with
         | "prefix" -> Kw_prefix
         | "base" -> Kw_base
         | "" -> fail lx "empty language tag"
         | _ -> Lang_tag word)
    | '_' ->
        advance lx;
        if looking_at lx ':' then begin
          advance lx;
          let label = take_while lx is_pn_char in
          Blank_label (strip_trailing_dot lx label)
        end
        else fail lx "expected ':' after '_'"
    | '.' ->
        (* statement dot, not a decimal like .5 (rare; treat as dot) *)
        advance lx;
        Dot
    | ';' -> advance lx; Semicolon
    | ',' -> advance lx; Comma
    | '[' -> advance lx; Lbracket
    | ']' -> advance lx; Rbracket
    | '(' -> advance lx; Lparen
    | ')' -> advance lx; Rparen
    | '^' ->
        advance lx;
        if looking_at lx '^' then begin advance lx; Carets end
        else fail lx "expected '^^'"
    | '0' .. '9' | '+' | '-' -> read_number lx
    | _ ->
        let word = take_while lx is_word_char in
        if word = "" then fail lx "unexpected character"
        else if String.contains word ':' then
          let word = strip_trailing_dot lx word in
          if word.[String.length word - 1] = ':' then Pname_ns word
          else Pname word
        else
          match word with
          | "a" -> Kw_a
          | "true" -> Kw_true
          | "false" -> Kw_false
          | "PREFIX" | "prefix" -> Kw_prefix
          | "BASE" | "base" -> Kw_base
          | w ->
              (* a bare word followed by ':' is handled above *)
              fail lx (Printf.sprintf "unexpected token %S" w)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

(* The parser builds the store directly: every term it reads is
   interned into [dict] (ids in first-seen order) and every triple
   appended to the id columns [cs]/[cp]/[co]; [Store.of_interned] then
   sorts them once.  A term is interned when a triple first uses it, so
   a datatype IRI or an empty [[]] statement adds nothing.  IRIs are
   resolved and validated once per distinct spelling: [iris] (raw
   [<...>] text) and [pnames] (prefixed names) cache the resolved node,
   and both are cleared whenever [@prefix] or [@base] rebinds. *)

module Strtbl = Hashtbl.Make (String)

type node = { term : Term.t; mutable id : int (* -1 until interned *) }

type parser_state = {
  lx : lexer;
  mutable tok : token;
  mutable prefixes : (string * string) list;
  mutable base : string;
  mutable bnode_count : int;
  bnode_prefix : string Lazy.t;
  iris : node Strtbl.t;
  pnames : node Strtbl.t;
  rdf_type : node;
  rdf_first : node;
  rdf_rest : node;
  rdf_nil : node;
  dict : Dict.t;
  mutable n : int;
  mutable cs : int array;
  mutable cp : int array;
  mutable co : int array;
}

let bump st = st.tok <- next_token st.lx
let perror st message =
  raise (Error { file = None; line = st.lx.line; message })

let expect st tok what =
  if st.tok = tok then bump st else perror st ("expected " ^ what)

let node term = { term; id = -1 }

let id_of st nd =
  if nd.id < 0 then nd.id <- Dict.intern st.dict nd.term;
  nd.id

let intern st term = Dict.intern st.dict term

let emit st s p o =
  if st.n = Array.length st.cs then begin
    let grow a = Array.append a (Array.make (max 16 st.n) 0) in
    st.cs <- grow st.cs;
    st.cp <- grow st.cp;
    st.co <- grow st.co
  end;
  st.cs.(st.n) <- id_of st s;
  st.cp.(st.n) <- id_of st p;
  st.co.(st.n) <- o;
  st.n <- st.n + 1

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec from i = i + m <= n && (at i 0 || from (i + 1)) in
  from 0

(* Labels of [[]] and collection cells are [genid<N>] unless the
   document itself spells a [_:genid...] label; then they take the first
   prefix [b<k>genid] the document never spells after [_:], so a fresh
   label never equals a spelled one. *)
let fresh_prefix src =
  let spelled p = contains src ("_:" ^ p) in
  let rec pick k =
    let p = Printf.sprintf "b%dgenid" k in
    if spelled p then pick (k + 1) else p
  in
  if spelled "genid" then pick 1 else "genid"

let fresh_bnode st =
  let label = Lazy.force st.bnode_prefix ^ string_of_int st.bnode_count in
  st.bnode_count <- st.bnode_count + 1;
  node (Term.Blank label)

let resolve_iri st raw =
  (* Minimal relative-reference handling: anything without a scheme is
     appended to the base. *)
  let has_scheme =
    match String.index_opt raw ':' with
    | None -> false
    | Some i ->
        i > 0
        && String.for_all
             (fun c ->
               match c with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> true
               | _ -> false)
             (String.sub raw 0 i)
  in
  let full = if has_scheme then raw else st.base ^ raw in
  match Iri.of_string_opt full with
  | Some iri -> iri
  | None -> perror st (Printf.sprintf "invalid IRI %S" full)

let expand_pname st name =
  match String.index_opt name ':' with
  | None -> perror st "not a prefixed name"
  | Some i ->
      let prefix = String.sub name 0 i in
      let local = String.sub name (i + 1) (String.length name - i - 1) in
      (match List.assoc_opt prefix st.prefixes with
       | Some ns -> resolve_iri st (ns ^ local)
       | None -> perror st (Printf.sprintf "unbound prefix %S" prefix))

let cached table st key resolve =
  match Strtbl.find_opt table key with
  | Some nd -> nd
  | None ->
      let nd = node (Term.Iri (resolve st key)) in
      Strtbl.add table key nd;
      nd

let rebound st =
  Strtbl.reset st.iris;
  Strtbl.reset st.pnames

(* An IRI node, interned on first use in a triple. *)
let parse_iri st =
  match st.tok with
  | Iriref raw ->
      bump st;
      cached st.iris st raw resolve_iri
  | Pname name ->
      bump st;
      cached st.pnames st name expand_pname
  | Kw_a ->
      bump st;
      st.rdf_type
  | _ -> perror st "expected IRI"

let parse_datatype st =
  match (parse_iri st).term with
  | Term.Iri dt -> dt
  | Term.Blank _ | Term.Literal _ -> perror st "expected IRI"

let rec parse_object st : int =
  match st.tok with
  | Iriref _ | Pname _ -> id_of st (parse_iri st)
  | Blank_label label ->
      bump st;
      intern st (Term.Blank label)
  | Lbracket ->
      bump st;
      let nd = fresh_bnode st in
      if st.tok <> Rbracket then parse_predicate_object_list st nd;
      expect st Rbracket "']'";
      id_of st nd
  | Lparen ->
      bump st;
      id_of st (parse_collection st)
  | String_lit s -> (
      bump st;
      match st.tok with
      | Lang_tag tag ->
          bump st;
          intern st (Term.Literal (Literal.lang_string s ~lang:tag))
      | Carets ->
          bump st;
          let dt = parse_datatype st in
          intern st (Term.Literal (Literal.make ~datatype:dt s))
      | _ -> intern st (Term.str s))
  | Integer_lit s ->
      bump st;
      intern st (Term.Literal (Literal.make ~datatype:Vocab.Xsd.integer s))
  | Decimal_lit s ->
      bump st;
      intern st (Term.Literal (Literal.make ~datatype:Vocab.Xsd.decimal s))
  | Double_lit s ->
      bump st;
      intern st (Term.Literal (Literal.make ~datatype:Vocab.Xsd.double s))
  | Kw_true ->
      bump st;
      intern st (Term.bool true)
  | Kw_false ->
      bump st;
      intern st (Term.bool false)
  | _ -> perror st "expected object term"

and parse_collection st : node =
  (* Already past '('.  Builds the rdf:first/rdf:rest chain. *)
  let rec items acc =
    if st.tok = Rparen then begin
      bump st;
      List.rev acc
    end
    else items (parse_object st :: acc)
  in
  let elements = items [] in
  match elements with
  | [] -> st.rdf_nil
  | _ ->
      let cells = List.map (fun _ -> fresh_bnode st) elements in
      let rec chain cells elements =
        match cells, elements with
        | cell :: rest, elt :: elements ->
            emit st cell st.rdf_first elt;
            (match rest with
             | next :: _ -> emit st cell st.rdf_rest (id_of st next)
             | [] -> emit st cell st.rdf_rest (id_of st st.rdf_nil));
            chain rest elements
        | _ -> ()
      in
      chain cells elements;
      List.hd cells

and parse_object_list st subject pred =
  let obj = parse_object st in
  emit st subject pred obj;
  if st.tok = Comma then begin
    bump st;
    parse_object_list st subject pred
  end

and parse_predicate_object_list st subject =
  let pred = parse_iri st in
  parse_object_list st subject pred;
  let rec more () =
    if st.tok = Semicolon then begin
      bump st;
      (* Trailing semicolons before ']' or '.' are allowed. *)
      match st.tok with
      | Rbracket | Dot | Semicolon -> more ()
      | _ ->
          parse_predicate_object_list st subject
    end
  in
  more ()

let parse_subject st : node =
  match st.tok with
  | Iriref _ | Pname _ -> parse_iri st
  | Blank_label label ->
      bump st;
      node (Term.Blank label)
  | Lparen ->
      bump st;
      parse_collection st
  | _ -> perror st "expected subject"

let parse_statement st =
  match st.tok with
  | Kw_prefix ->
      bump st;
      let prefix =
        match st.tok with
        | Pname_ns name ->
            bump st;
            String.sub name 0 (String.length name - 1)
        | _ -> perror st "expected prefix name after @prefix"
      in
      let ns =
        match st.tok with
        | Iriref raw ->
            bump st;
            Iri.to_string (resolve_iri st raw)
        | _ -> perror st "expected IRI after prefix name"
      in
      st.prefixes <- (prefix, ns) :: List.remove_assoc prefix st.prefixes;
      rebound st;
      if st.tok = Dot then bump st
  | Kw_base ->
      bump st;
      (match st.tok with
       | Iriref raw ->
           bump st;
           st.base <- raw;
           rebound st
       | _ -> perror st "expected IRI after @base");
      if st.tok = Dot then bump st
  | Lbracket ->
      bump st;
      let nd = fresh_bnode st in
      if st.tok <> Rbracket then parse_predicate_object_list st nd;
      expect st Rbracket "']'";
      if st.tok <> Dot then parse_predicate_object_list st nd;
      expect st Dot "'.'"
  | _ ->
      let subject = parse_subject st in
      parse_predicate_object_list st subject;
      expect st Dot "'.'"

let parse ?(base = "") src =
  let lx = { src; len = String.length src; pos = 0; line = 1 } in
  let hint = 1 + (String.length src / 64) in
  let st =
    { lx; tok = Eof; prefixes = []; base; bnode_count = 0;
      bnode_prefix = lazy (fresh_prefix src);
      iris = Strtbl.create 64;
      pnames = Strtbl.create 64;
      rdf_type = node (Term.Iri Vocab.Rdf.type_);
      rdf_first = node (Term.Iri Vocab.Rdf.first);
      rdf_rest = node (Term.Iri Vocab.Rdf.rest);
      rdf_nil = node (Term.Iri Vocab.Rdf.nil);
      dict = Dict.create ~hint ();
      n = 0;
      cs = Array.make hint 0;
      cp = Array.make hint 0;
      co = Array.make hint 0 }
  in
  try
    st.tok <- next_token lx;
    while st.tok <> Eof do
      parse_statement st
    done;
    if st.n = 0 then Ok Graph.empty
    else
      Ok (Graph.of_store (Store.of_interned st.dict ~n:st.n st.cs st.cp st.co))
  with
  | Error e -> Result.Error e
  (* A parser for untrusted input must not leak exceptions through the
     [result] type: any residual defensive failure (e.g. a term
     constructor rejecting a lexed value) becomes a parse error at the
     current line. *)
  | Failure m -> Result.Error { file = None; line = st.lx.line; message = m }
  | Invalid_argument m ->
      Result.Error { file = None; line = st.lx.line; message = m }
  | Stack_overflow ->
      Result.Error
        { file = None; line = st.lx.line; message = "input nested too deeply" }

let parse_exn ?base src =
  match parse ?base src with
  | Ok g -> g
  | Result.Error e -> failwith (Format.asprintf "Turtle: %a" pp_error e)

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file ?base path =
  match read_whole_file path with
  | src -> (
      match parse ?base src with
      | Ok _ as ok -> ok
      | Result.Error e -> Result.Error { e with file = Some path })
  | exception Sys_error m ->
      Result.Error { file = Some path; line = 0; message = m }
let parse_file_exn ?base path = parse_exn ?base (read_whole_file path)

(* ------------------------------------------------------------------ *)
(* Serializer                                                         *)
(* ------------------------------------------------------------------ *)

(* One pass in SPO order into a presized buffer.  A subject block opens
   whenever the subject changes; its later statements continue after
   " ;" on a new line indented by three spaces.  The prefix block goes
   first but is known only at the end: it lists the prefixes the body
   used, so [to_string] joins the two with one copy. *)

type writer = {
  prefixes : Namespace.t;
  body : Buffer.t;
  mutable used : string list;  (* names whose directive is printed *)
}

(* Escaped characters are replaced; everything else is copied in runs. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let esc =
      match String.unsafe_get s i with
      | '"' -> "\\\""
      | '\\' -> "\\\\"
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> ""
    in
    if esc <> "" then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf esc;
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start)

let add_iri w buf iri =
  let s = Iri.to_string iri in
  match Namespace.binding w.prefixes iri with
  | Some (prefix, ns) ->
      (* a directive is keyed by the name up to its first ':' *)
      let key =
        match String.index_opt prefix ':' with
        | Some i -> String.sub prefix 0 i
        | None -> prefix
      in
      if not (List.mem key w.used) then w.used <- key :: w.used;
      let k = String.length ns in
      Buffer.add_string buf prefix;
      Buffer.add_char buf ':';
      Buffer.add_substring buf s k (String.length s - k)
  | None ->
      Buffer.add_char buf '<';
      Buffer.add_string buf s;
      Buffer.add_char buf '>'

let add_term w buf = function
  | Term.Iri i -> add_iri w buf i
  | Term.Blank b ->
      Buffer.add_string buf "_:";
      Buffer.add_string buf b
  | Term.Literal l -> (
      Buffer.add_char buf '"';
      add_escaped buf (Literal.lexical l);
      Buffer.add_char buf '"';
      match Literal.lang l with
      | Some tag ->
          Buffer.add_char buf '@';
          Buffer.add_string buf tag
      | None ->
          let dt = Literal.datatype l in
          if not (Iri.equal dt Vocab.Xsd.string) then begin
            Buffer.add_string buf "^^<";
            Buffer.add_string buf (Iri.to_string dt);
            Buffer.add_char buf '>'
          end)

(* Before a statement: the same subject continues its block on a new
   line; a new one closes the open block, if any. *)
let separate body ~first ~same =
  if same then Buffer.add_string body " ;\n  "
  else if not first then Buffer.add_string body " .\n"

let close body ~first = if not first then Buffer.add_string body " .\n"

(* The rows [row 0 .. row (n - 1)] of [st], ascending, each id's text
   rendered once into an array over the dictionary.  A table sized
   from [n] instead was slower on every traced workload, ad-hoc
   fragments of a larger store included. *)
let write_rows w st n row =
  let scratch = Buffer.create 64 in
  let cache = Array.make (Store.n_terms st) "" in
  let text id =
    let t = cache.(id) in
    if t <> "" then t
    else begin
      Buffer.clear scratch;
      add_term w scratch (Store.term st id);
      let t = Buffer.contents scratch in
      cache.(id) <- t;
      t
    end
  in
  let body = w.body in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let r = row i in
    let s = Store.spo_subj st r in
    separate body ~first:(i = 0) ~same:(s = !prev);
    if s <> !prev then Buffer.add_string body (text s);
    prev := s;
    Buffer.add_char body ' ';
    Buffer.add_string body (text (Store.spo_pred st r));
    Buffer.add_char body ' ';
    Buffer.add_string body (text (Store.spo_obj st r))
  done;
  close body ~first:(n = 0)

let write_maps w g =
  let body = w.body in
  let prev = ref None in
  Graph.iter
    (fun t ->
      let s = Triple.subject t in
      let same =
        match !prev with Some p -> Term.equal p s | None -> false
      in
      separate body ~first:(Option.is_none !prev) ~same;
      if not same then add_term w body s;
      prev := Some s;
      Buffer.add_char body ' ';
      add_iri w body (Triple.predicate t);
      Buffer.add_char body ' ';
      add_term w body (Triple.object_ t))
    g;
  close body ~first:(Option.is_none !prev)

(* The prefix block and the body. *)
let write prefixes g =
  let n = Graph.cardinal g in
  let w = { prefixes; body = Buffer.create (80 * n + 16); used = [] } in
  (match Graph.store g, Graph.row_view g with
   | Some st, _ -> write_rows w st n Fun.id
   | None, Some (src, rows) -> write_rows w src n (Array.get rows)
   | None, None -> write_maps w g);
  let header = Buffer.create 256 in
  List.iter
    (fun prefix ->
      match List.assoc_opt prefix (Namespace.bindings prefixes) with
      | Some ns -> Printf.bprintf header "@prefix %s: <%s> .\n" prefix ns
      | None -> ())
    (List.sort String.compare w.used);
  if w.used <> [] then Buffer.add_char header '\n';
  Buffer.contents header, w.body

let to_string ?(prefixes = Namespace.default) g =
  let header, body = write prefixes g in
  let h = String.length header and n = Buffer.length body in
  let out = Bytes.create (h + n) in
  Bytes.blit_string header 0 out 0 h;
  Buffer.blit body 0 out h n;
  Bytes.unsafe_to_string out

let write_file ?(prefixes = Namespace.default) path g =
  let header, body = write prefixes g in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc header;
      Buffer.output_buffer oc body)
