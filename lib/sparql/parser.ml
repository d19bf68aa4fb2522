open Rdf
open Algebra

type error = { position : int; message : string }

let pp_error ppf e = Format.fprintf ppf "at offset %d: %s" e.position e.message

exception Err of error

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tword of string            (* keyword or bare identifier *)
  | Tvar of string             (* ?x or $x *)
  | Tiri of Iri.t              (* resolved IRI *)
  | Tstring of string
  | Tlang of string            (* @en *)
  | Tint of string
  | Tdecimal of string
  | Tcarets
  | Tlbrace | Trbrace
  | Tlpar | Trpar
  | Tdot | Tsemi | Tcomma
  | Tslash | Tpipe | Tstar | Tquestion | Tplus | Tcaret
  | Teq | Tneq | Tlt | Tle | Tgt | Tge
  | Tand | Tor | Tbang
  | Teof

type lexer = {
  src : string;
  mutable pos : int;
  mutable namespaces : Namespace.t;
}

let lex_err lx message = raise (Err { position = lx.pos; message })
let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None
let peek2 lx =
  if lx.pos + 1 < String.length lx.src then Some lx.src.[lx.pos + 1] else None

let advance lx = lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek lx with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance lx;
      skip_ws lx
  | Some '#' ->
      while peek lx <> None && peek lx <> Some '\n' do
        advance lx
      done;
      skip_ws lx
  | _ -> ()

let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
  | _ -> false

let is_pname_char c = is_name_char c || c = '.' || c = ':'

let take_while lx pred =
  let start = lx.pos in
  while (match peek lx with Some c when pred c -> true | _ -> false) do
    advance lx
  done;
  String.sub lx.src start (lx.pos - start)

(* An IRI token starting at [start], or a positioned error there. *)
let iri_at start body =
  match Iri.of_string_opt body with
  | Some iri -> iri
  | None ->
      raise
        (Err { position = start; message = Printf.sprintf "invalid IRI %S" body })

let resolve_pname lx ~start word =
  match String.index_opt word ':' with
  | None -> None
  | Some i ->
      let prefix = String.sub word 0 i in
      let local = String.sub word (i + 1) (String.length word - i - 1) in
      (match Namespace.expand lx.namespaces (prefix ^ ":" ^ local) with
       | Some full -> Some (iri_at start full)
       | None ->
           (* leave unresolved: PREFIX declarations are handled by the
              parser, which sees the raw word *)
           None)

let next_token lx =
  skip_ws lx;
  match peek lx with
  | None -> Teof
  | Some '{' -> advance lx; Tlbrace
  | Some '}' -> advance lx; Trbrace
  | Some '(' -> advance lx; Tlpar
  | Some ')' -> advance lx; Trpar
  | Some ';' -> advance lx; Tsemi
  | Some ',' -> advance lx; Tcomma
  | Some '/' -> advance lx; Tslash
  | Some '*' -> advance lx; Tstar
  | Some '+' -> advance lx; Tplus
  | Some '.' when (match peek2 lx with Some ('0'..'9') -> false | _ -> true) ->
      advance lx; Tdot
  | Some ('?' | '$') when (match peek2 lx with
                           | Some c -> is_name_char c
                           | None -> false) ->
      advance lx;
      Tvar (take_while lx is_name_char)
  | Some '?' -> advance lx; Tquestion
  | Some '^' ->
      advance lx;
      if peek lx = Some '^' then begin advance lx; Tcarets end else Tcaret
  | Some '|' ->
      advance lx;
      if peek lx = Some '|' then begin advance lx; Tor end else Tpipe
  | Some '&' ->
      advance lx;
      if peek lx = Some '&' then begin advance lx; Tand end
      else lex_err lx "expected '&&'"
  | Some '!' ->
      advance lx;
      if peek lx = Some '=' then begin advance lx; Tneq end else Tbang
  | Some '=' -> advance lx; Teq
  | Some '<' -> (
      (* IRI or comparison *)
      match peek2 lx with
      | Some '=' -> advance lx; advance lx; Tle
      | Some (' ' | '\t' | '?' | '$' | '\n') | None -> advance lx; Tlt
      | _ ->
          let start = lx.pos in
          advance lx;
          let body = take_while lx (fun c -> c <> '>') in
          if peek lx <> Some '>' then lex_err lx "unterminated IRI";
          advance lx;
          Tiri (iri_at start body))
  | Some '>' ->
      advance lx;
      if peek lx = Some '=' then begin advance lx; Tge end else Tgt
  | Some '"' ->
      advance lx;
      let buf = Buffer.create 16 in
      let rec go () =
        match peek lx with
        | None -> lex_err lx "unterminated string"
        | Some '"' -> advance lx
        | Some '\\' ->
            advance lx;
            (match peek lx with
             | Some 'n' -> Buffer.add_char buf '\n'
             | Some 't' -> Buffer.add_char buf '\t'
             | Some c -> Buffer.add_char buf c
             | None -> lex_err lx "unterminated escape");
            advance lx;
            go ()
        | Some c ->
            Buffer.add_char buf c;
            advance lx;
            go ()
      in
      go ();
      Tstring (Buffer.contents buf)
  | Some '@' ->
      advance lx;
      Tlang (take_while lx (fun c -> is_name_char c))
  | Some ('0' .. '9' | '-') ->
      let text =
        take_while lx (fun c ->
            match c with '0' .. '9' | '-' | '.' | 'e' | 'E' -> true | _ -> false)
      in
      if String.contains text '.' || String.contains text 'e'
         || String.contains text 'E'
      then Tdecimal text
      else Tint text
  | Some c when is_pname_char c ->
      let start = lx.pos in
      let word = take_while lx is_pname_char in
      (* strip a trailing dot (statement terminator) *)
      let word =
        if word <> "" && word.[String.length word - 1] = '.' then begin
          lx.pos <- lx.pos - 1;
          String.sub word 0 (String.length word - 1)
        end
        else word
      in
      if String.length word > 1 && word.[0] = '_' && word.[1] = ':' then
        Tword word
      else if String.contains word ':' then
        match resolve_pname lx ~start word with
        | Some iri -> Tiri iri
        | None -> Tword word
      else Tword word
  | Some c -> lex_err lx (Printf.sprintf "unexpected character %C" c)

(* ------------------------------------------------------------------ *)
(* Parser state                                                       *)
(* ------------------------------------------------------------------ *)

type state = { lx : lexer; mutable tok : token; mutable tok_pos : int }

let bump st =
  skip_ws st.lx;
  st.tok_pos <- st.lx.pos;
  st.tok <- next_token st.lx

let perr st message = raise (Err { position = st.tok_pos; message })

let expect st tok what =
  if st.tok = tok then bump st else perr st ("expected " ^ what)

let keyword st = function
  | Tword w -> Some (String.uppercase_ascii w)
  | _ -> (ignore st; None)

let at_keyword st k = keyword st st.tok = Some k

let eat_keyword st k =
  if at_keyword st k then begin
    bump st;
    true
  end
  else false

let expect_keyword st k =
  if not (eat_keyword st k) then perr st (Printf.sprintf "expected %s" k)

(* ------------------------------------------------------------------ *)
(* Terms, paths                                                       *)
(* ------------------------------------------------------------------ *)

let parse_literal_tail st lexical =
  match st.tok with
  | Tlang "" -> perr st "empty language tag"
  | Tlang tag ->
      bump st;
      Term.Literal (Literal.lang_string lexical ~lang:tag)
  | Tcarets -> (
      bump st;
      match st.tok with
      | Tiri dt ->
          bump st;
          Term.Literal (Literal.make ~datatype:dt lexical)
      | _ -> perr st "expected datatype IRI after ^^")
  | _ -> Term.str lexical

let parse_term st : term_pattern =
  match st.tok with
  | Tvar v -> bump st; Var v
  | Tiri iri -> bump st; Const (Term.Iri iri)
  | Tstring s -> bump st; Const (parse_literal_tail st s)
  | Tint s ->
      bump st;
      Const (Term.Literal (Literal.make ~datatype:Vocab.Xsd.integer s))
  | Tdecimal s ->
      bump st;
      Const (Term.Literal (Literal.make ~datatype:Vocab.Xsd.decimal s))
  | Tword "true" -> bump st; Const (Term.bool true)
  | Tword "false" -> bump st; Const (Term.bool false)
  | Tword w when String.length w > 2 && String.sub w 0 2 = "_:" ->
      bump st;
      Const (Term.Blank (String.sub w 2 (String.length w - 2)))
  | _ -> perr st "expected an RDF term or variable"

(* SPARQL property paths. *)
let rec parse_path_alt st =
  let first = parse_path_seq st in
  if st.tok = Tpipe then begin
    bump st;
    Rdf.Path.Alt (first, parse_path_alt st)
  end
  else first

and parse_path_seq st =
  let first = parse_path_post st in
  if st.tok = Tslash then begin
    bump st;
    Rdf.Path.Seq (first, parse_path_seq st)
  end
  else first

and parse_path_post st =
  let base = parse_path_prim st in
  let rec suffix e =
    match st.tok with
    | Tstar -> bump st; suffix (Rdf.Path.Star e)
    | Tquestion -> bump st; suffix (Rdf.Path.Opt e)
    | Tplus -> bump st; suffix (Rdf.Path.plus e)
    | _ -> e
  in
  suffix base

and parse_path_prim st =
  match st.tok with
  | Tiri iri -> bump st; Rdf.Path.Prop iri
  | Tword "a" -> bump st; Rdf.Path.Prop Vocab.Rdf.type_
  | Tcaret -> bump st; Rdf.Path.Inv (parse_path_post st)
  | Tlpar ->
      bump st;
      let e = parse_path_alt st in
      expect st Trpar "')'";
      e
  | _ -> perr st "expected a path"

let parse_predicate st : pred_pattern =
  match st.tok with
  | Tvar v -> bump st; Pvar v
  | Tword "a" -> bump st; Pred Vocab.Rdf.type_
  | _ -> (
      match parse_path_alt st with
      | Rdf.Path.Prop p -> Pred p
      | path -> Ppath path)

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec parse_expr st = parse_or_expr st

and parse_or_expr st =
  let first = parse_and_expr st in
  if st.tok = Tor then begin
    bump st;
    E_or (first, parse_or_expr st)
  end
  else first

and parse_and_expr st =
  let first = parse_rel_expr st in
  if st.tok = Tand then begin
    bump st;
    E_and (first, parse_and_expr st)
  end
  else first

and parse_rel_expr st =
  let first = parse_unary_expr st in
  let binop mk =
    bump st;
    mk first (parse_unary_expr st)
  in
  match st.tok with
  | Teq -> binop (fun a b -> E_eq (a, b))
  | Tneq -> binop (fun a b -> E_neq (a, b))
  | Tlt -> binop (fun a b -> E_lt (a, b))
  | Tle -> binop (fun a b -> E_le (a, b))
  | Tgt -> binop (fun a b -> E_gt (a, b))
  | Tge -> binop (fun a b -> E_ge (a, b))
  | Tword w when String.uppercase_ascii w = "IN" ->
      bump st;
      expect st Tlpar "'('";
      let rec items acc =
        match st.tok with
        | Trpar -> bump st; List.rev acc
        | Tcomma -> bump st; items acc
        | _ -> (
            match parse_term st with
            | Const t -> items (t :: acc)
            | Var _ -> perr st "IN expects constant terms")
      in
      E_in (first, items [])
  | _ -> first

and parse_unary_expr st =
  match st.tok with
  | Tbang ->
      bump st;
      E_not (parse_unary_expr st)
  | Tlpar ->
      bump st;
      let e = parse_expr st in
      expect st Trpar "')'";
      e
  | Tvar v -> bump st; E_var v
  | Tiri _ | Tstring _ | Tint _ | Tdecimal _ -> (
      match parse_term st with
      | Const t -> E_term t
      | Var _ -> assert false)
  | Tword w -> parse_call st (String.uppercase_ascii w)
  | _ -> perr st "expected an expression"

and parse_call st name =
  let one mk =
    bump st;
    expect st Tlpar "'('";
    let a = parse_expr st in
    expect st Trpar "')'";
    mk a
  in
  match name with
  | "TRUE" -> bump st; e_true
  | "FALSE" -> bump st; e_false
  | "BOUND" -> (
      bump st;
      expect st Tlpar "'('";
      match st.tok with
      | Tvar v ->
          bump st;
          expect st Trpar "')'";
          E_bound v
      | _ -> perr st "BOUND expects a variable")
  | "ISIRI" | "ISURI" -> one (fun a -> E_is_iri a)
  | "ISLITERAL" -> one (fun a -> E_is_literal a)
  | "ISBLANK" -> one (fun a -> E_is_blank a)
  | "LANG" -> one (fun a -> E_lang a)
  | "DATATYPE" -> one (fun a -> E_datatype a)
  | "STRLEN" -> one (fun a -> E_str_len a)
  | "LANGMATCHES" ->
      bump st;
      expect st Tlpar "'('";
      let a = parse_expr st in
      expect st Tcomma "','";
      let b = parse_expr st in
      expect st Trpar "')'";
      E_lang_matches (a, b)
  | "REGEX" ->
      bump st;
      expect st Tlpar "'('";
      let a = parse_expr st in
      expect st Tcomma "','";
      let re =
        match st.tok with
        | Tstring s -> bump st; s
        | _ -> perr st "REGEX expects a pattern string"
      in
      let flags =
        if st.tok = Tcomma then begin
          bump st;
          match st.tok with
          | Tstring f -> bump st; Some f
          | _ -> perr st "REGEX expects a flags string"
        end
        else None
      in
      expect st Trpar "')'";
      E_regex (a, re, flags)
  | "EXISTS" ->
      bump st;
      E_exists (parse_group st)
  | "NOT" ->
      bump st;
      expect_keyword st "EXISTS";
      E_not_exists (parse_group st)
  | other -> perr st (Printf.sprintf "unknown function %s" other)

(* ------------------------------------------------------------------ *)
(* Graph patterns                                                     *)
(* ------------------------------------------------------------------ *)

and parse_group st : Algebra.t =
  expect st Tlbrace "'{'";
  let acc = parse_group_body st Unit in
  expect st Trbrace "'}'";
  acc

and parse_group_body st acc =
  match st.tok with
  | Trbrace -> acc
  | Tdot ->
      bump st;
      parse_group_body st acc
  | Tword w when String.uppercase_ascii w = "FILTER" ->
      bump st;
      let e =
        (* FILTER EXISTS { } / FILTER NOT EXISTS { } / FILTER (expr) *)
        match st.tok with
        | Tword k when String.uppercase_ascii k = "EXISTS" ->
            bump st;
            E_exists (parse_group st)
        | Tword k when String.uppercase_ascii k = "NOT" ->
            bump st;
            expect_keyword st "EXISTS";
            E_not_exists (parse_group st)
        | _ -> parse_expr st
      in
      parse_group_body st (Filter (e, acc))
  | Tword w when String.uppercase_ascii w = "OPTIONAL" ->
      bump st;
      let inner = parse_group st in
      parse_group_body st (Left_join (acc, inner, e_true))
  | Tword w when String.uppercase_ascii w = "MINUS" ->
      bump st;
      let inner = parse_group st in
      parse_group_body st (Minus (acc, inner))
  | Tword w when String.uppercase_ascii w = "BIND" ->
      bump st;
      expect st Tlpar "'('";
      let e = parse_expr st in
      expect_keyword st "AS";
      let v =
        match st.tok with
        | Tvar v -> bump st; v
        | _ -> perr st "BIND expects a variable after AS"
      in
      expect st Trpar "')'";
      parse_group_body st (Extend (v, e, acc))
  | Tlbrace ->
      (* nested group, possibly a UNION chain *)
      let first = parse_group st in
      let rec unions left =
        if at_keyword st "UNION" then begin
          bump st;
          let right = parse_group st in
          unions (Union (left, right))
        end
        else left
      in
      let nested = unions first in
      parse_group_body st (Join (acc, nested))
  | _ ->
      (* triples block *)
      let triples = parse_triples st in
      parse_group_body st (Join (acc, BGP triples))

and parse_triples st =
  let subject = parse_term st in
  let rec predicates acc =
    let pred = parse_predicate st in
    let rec objects acc =
      let obj = parse_term st in
      let acc = { tp_s = subject; tp_p = pred; tp_o = obj } :: acc in
      if st.tok = Tcomma then begin
        bump st;
        objects acc
      end
      else acc
    in
    let acc = objects acc in
    if st.tok = Tsemi then begin
      bump st;
      match st.tok with
      | Trbrace | Tdot -> acc
      | _ -> predicates acc
    end
    else acc
  in
  let triples = List.rev (predicates []) in
  if st.tok = Tdot then bump st;
  triples

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

type query =
  | Select of { distinct : bool; vars : string list option; pattern : Algebra.t }
  | Construct of { template : triple_pattern list; pattern : Algebra.t }
  | Ask of Algebra.t

let parse_prologue st =
  while at_keyword st "PREFIX" || at_keyword st "BASE" do
    if eat_keyword st "PREFIX" then begin
      let prefix =
        match st.tok with
        | Tword w when String.length w > 0 && w.[String.length w - 1] = ':' ->
            bump st;
            String.sub w 0 (String.length w - 1)
        | _ -> perr st "expected 'prefix:' after PREFIX"
      in
      match st.tok with
      | Tiri iri ->
          st.lx.namespaces <-
            Namespace.add prefix (Iri.to_string iri) st.lx.namespaces;
          bump st
      | _ -> perr st "expected IRI after PREFIX"
    end
    else begin
      expect_keyword st "BASE";
      match st.tok with
      | Tiri _ -> bump st
      | _ -> perr st "expected IRI after BASE"
    end
  done

let parse_query st =
  parse_prologue st;
  if eat_keyword st "SELECT" then begin
    let distinct = eat_keyword st "DISTINCT" in
    let vars =
      if st.tok = Tstar then begin
        bump st;
        None
      end
      else begin
        let rec collect acc =
          match st.tok with
          | Tvar v ->
              bump st;
              collect (v :: acc)
          | _ -> List.rev acc
        in
        match collect [] with
        | [] -> perr st "expected projection variables or '*'"
        | vs -> Some vs
      end
    in
    expect_keyword st "WHERE";
    let pattern = parse_group st in
    Select { distinct; vars; pattern }
  end
  else if eat_keyword st "CONSTRUCT" then begin
    (* CONSTRUCT { template } WHERE { ... }   or   CONSTRUCT WHERE { ... } *)
    if at_keyword st "WHERE" then begin
      bump st;
      let pos = st.tok_pos in
      let pattern = parse_group st in
      match pattern with
      | Join (Unit, BGP triples) | BGP triples ->
          Construct { template = triples; pattern }
      | _ ->
          raise
            (Err
               { position = pos;
                 message = "CONSTRUCT WHERE requires a plain basic graph pattern" })
    end
    else begin
      expect st Tlbrace "'{'";
      let template =
        if st.tok = Trbrace then []
        else
          let rec blocks acc =
            match st.tok with
            | Trbrace -> acc
            | Tdot -> bump st; blocks acc
            | _ -> blocks (acc @ parse_triples st)
          in
          blocks []
      in
      expect st Trbrace "'}'";
      expect_keyword st "WHERE";
      let pattern = parse_group st in
      Construct { template; pattern }
    end
  end
  else if eat_keyword st "ASK" then begin
    ignore (eat_keyword st "WHERE");
    Ask (parse_group st)
  end
  else perr st "expected SELECT, CONSTRUCT or ASK"

let parse ?(namespaces = Namespace.default) src =
  let lx = { src; pos = 0; namespaces } in
  let st = { lx; tok = Teof; tok_pos = 0 } in
  try
    bump st;
    let q = parse_query st in
    if st.tok <> Teof then perr st "trailing input after query";
    Ok q
  with Err e -> Error e

let parse_exn ?namespaces src =
  match parse ?namespaces src with
  | Ok q -> q
  | Error e -> failwith (Format.asprintf "Sparql.Parser: %a" pp_error e)

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

type answer =
  | Bindings of Binding.t list
  | Graph of Rdf.Graph.t
  | Boolean of bool

let run ?strategy g query =
  match query with
  | Select { distinct; vars; pattern } ->
      let projected =
        match vars with
        | Some vs -> Project (vs, pattern)
        | None -> pattern
      in
      let final = if distinct then Distinct projected else projected in
      Bindings (Eval.eval ?strategy g final)
  | Construct { template; pattern } ->
      Graph (Eval.construct ?strategy g ~template pattern)
  | Ask pattern -> Boolean (Eval.eval ?strategy g pattern <> [])

let run_string ?strategy ?namespaces g src =
  match parse ?namespaces src with
  | Ok q -> Ok (run ?strategy g q)
  | Error e -> Error e
