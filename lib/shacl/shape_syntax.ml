open Rdf

type error = { position : int; message : string }

let pp_error ppf e =
  Format.fprintf ppf "at offset %d: %s" e.position e.message

exception Err of error

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Tiri of string            (* resolved from <...> or pname *)
  | Tident of string          (* bare word: top, forall, id, test, ... *)
  | Tint of int
  | Tstring of string
  | Tblank of string
  | Tlit_suffix_lang of string  (* @en after a string *)
  | Tcarets
  | Tge                       (* >= *)
  | Tle                       (* <= *)
  | Tbang
  | Tamp
  | Tpipe
  | Tdot
  | Tcomma
  | Tlpar
  | Trpar
  | Tslash
  | Tstar
  | Tquestion
  | Tplus
  | Tcaret                    (* ^ for inverse paths *)
  | Teq                       (* = inside test(...) *)
  | Teof

type lexer = { src : string; namespaces : Namespace.t; mutable pos : int }

let lex_err lx message = raise (Err { position = lx.pos; message })

let peek lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let rec skip_ws lx =
  match peek lx with
  | Some (' ' | '\t' | '\n' | '\r') ->
      lx.pos <- lx.pos + 1;
      skip_ws lx
  | Some '#' ->
      while peek lx <> None && peek lx <> Some '\n' do
        lx.pos <- lx.pos + 1
      done;
      skip_ws lx
  | _ -> ()

let is_word_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> true
  | _ -> false

let take_word lx =
  let start = lx.pos in
  while
    match peek lx with Some c when is_word_char c -> true | _ -> false
  do
    lx.pos <- lx.pos + 1
  done;
  let w = String.sub lx.src start (lx.pos - start) in
  (* A trailing dot is the quantifier separator, not part of a name. *)
  if w <> "" && w.[String.length w - 1] = '.' then begin
    lx.pos <- lx.pos - 1;
    String.sub w 0 (String.length w - 1)
  end
  else w

let next_token lx =
  skip_ws lx;
  match peek lx with
  | None -> Teof
  | Some '<' ->
      if lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '=' then begin
        lx.pos <- lx.pos + 2;
        Tle
      end
      else begin
        lx.pos <- lx.pos + 1;
        let start = lx.pos in
        while peek lx <> None && peek lx <> Some '>' do
          lx.pos <- lx.pos + 1
        done;
        if peek lx = None then lex_err lx "unterminated IRI"
        else begin
          let iri = String.sub lx.src start (lx.pos - start) in
          lx.pos <- lx.pos + 1;
          Tiri iri
        end
      end
  | Some '>' ->
      if lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = '=' then begin
        lx.pos <- lx.pos + 2;
        Tge
      end
      else lex_err lx "expected '>='"
  | Some '"' ->
      lx.pos <- lx.pos + 1;
      let buf = Buffer.create 16 in
      let rec go () =
        match peek lx with
        | None -> lex_err lx "unterminated string"
        | Some '"' -> lx.pos <- lx.pos + 1
        | Some '\\' ->
            lx.pos <- lx.pos + 1;
            (match peek lx with
             | Some 'n' -> Buffer.add_char buf '\n'
             | Some 't' -> Buffer.add_char buf '\t'
             | Some 'r' -> Buffer.add_char buf '\r'
             | Some c -> Buffer.add_char buf c
             | None -> lex_err lx "unterminated escape");
            lx.pos <- lx.pos + 1;
            go ()
        | Some c ->
            Buffer.add_char buf c;
            lx.pos <- lx.pos + 1;
            go ()
      in
      go ();
      Tstring (Buffer.contents buf)
  | Some '@' ->
      lx.pos <- lx.pos + 1;
      let tag = take_word lx in
      Tlit_suffix_lang tag
  | Some '_' when
      lx.pos + 1 < String.length lx.src && lx.src.[lx.pos + 1] = ':' ->
      lx.pos <- lx.pos + 2;
      Tblank (take_word lx)
  | Some '!' -> lx.pos <- lx.pos + 1; Tbang
  | Some '&' -> lx.pos <- lx.pos + 1; Tamp
  | Some '|' -> lx.pos <- lx.pos + 1; Tpipe
  | Some '.' -> lx.pos <- lx.pos + 1; Tdot
  | Some ',' -> lx.pos <- lx.pos + 1; Tcomma
  | Some '(' -> lx.pos <- lx.pos + 1; Tlpar
  | Some ')' -> lx.pos <- lx.pos + 1; Trpar
  | Some '/' -> lx.pos <- lx.pos + 1; Tslash
  | Some '*' -> lx.pos <- lx.pos + 1; Tstar
  | Some '?' -> lx.pos <- lx.pos + 1; Tquestion
  | Some '+' -> lx.pos <- lx.pos + 1; Tplus
  | Some '=' -> lx.pos <- lx.pos + 1; Teq
  | Some '^' ->
      lx.pos <- lx.pos + 1;
      if peek lx = Some '^' then begin
        lx.pos <- lx.pos + 1;
        Tcarets
      end
      else Tcaret
  | Some ('0' .. '9') ->
      let start = lx.pos in
      while
        match peek lx with Some ('0' .. '9') -> true | _ -> false
      do
        lx.pos <- lx.pos + 1
      done;
      (match int_of_string_opt (String.sub lx.src start (lx.pos - start)) with
       | Some n -> Tint n
       | None ->
           raise (Err { position = start; message = "integer out of range" }))
  | Some c when is_word_char c ->
      let w = take_word lx in
      if String.contains w ':' then
        match Namespace.expand lx.namespaces w with
        | Some full -> Tiri full
        | None -> lex_err lx (Printf.sprintf "unbound prefix in %S" w)
      else Tident w
  | Some c -> lex_err lx (Printf.sprintf "unexpected character %C" c)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type state = {
  lx : lexer;
  mutable tok : token;
  mutable tok_pos : int;
  schema : Schema.t option;  (* [shape(s)] must name one of its definitions *)
}

let bump st =
  skip_ws st.lx;
  st.tok_pos <- st.lx.pos;
  st.tok <- next_token st.lx

let perr st message = raise (Err { position = st.tok_pos; message })

let expect st tok what =
  if st.tok = tok then bump st else perr st ("expected " ^ what)

let iri_of st s =
  match Iri.of_string_opt s with
  | Some i -> i
  | None -> perr st (Printf.sprintf "invalid IRI %S" s)

(* --- paths ------------------------------------------------------- *)

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
  let rec suffixes e =
    match st.tok with
    | Tstar ->
        bump st;
        suffixes (Rdf.Path.Star e)
    | Tquestion ->
        bump st;
        suffixes (Rdf.Path.Opt e)
    | Tplus ->
        bump st;
        suffixes (Rdf.Path.plus e)
    | _ -> e
  in
  suffixes base

and parse_path_prim st =
  match st.tok with
  | Tiri s ->
      let i = iri_of st s in
      bump st;
      Rdf.Path.Prop i
  | Tcaret ->
      bump st;
      Rdf.Path.Inv (parse_path_post st)
  | Tlpar ->
      bump st;
      let e = parse_path_alt st in
      expect st Trpar "')'";
      e
  | _ -> perr st "expected a path expression"

(* --- terms and literals ------------------------------------------ *)

let parse_term st : Term.t =
  match st.tok with
  | Tiri s ->
      let i = iri_of st s in
      bump st;
      Term.Iri i
  | Tblank label ->
      bump st;
      Term.Blank label
  | Tint n ->
      bump st;
      Term.int n
  | Tident "true" ->
      bump st;
      Term.bool true
  | Tident "false" ->
      bump st;
      Term.bool false
  | Tstring s -> (
      bump st;
      match st.tok with
      | Tlit_suffix_lang "" -> perr st "empty language tag"
      | Tlit_suffix_lang tag ->
          bump st;
          Term.Literal (Literal.lang_string s ~lang:tag)
      | Tcarets -> (
          bump st;
          match st.tok with
          | Tiri dt ->
              let dt = iri_of st dt in
              bump st;
              Term.Literal (Literal.make ~datatype:dt s)
          | _ -> perr st "expected datatype IRI after ^^")
      | _ -> Term.str s)
  | _ -> perr st "expected a term"

let parse_literal st =
  match parse_term st with
  | Term.Literal l -> l
  | _ -> perr st "expected a literal"

(* --- test(...) ---------------------------------------------------- *)

let parse_test st =
  (* After 'test('. *)
  let key =
    match st.tok with
    | Tident k -> bump st; k
    | _ -> perr st "expected a test keyword"
  in
  expect st Teq "'='";
  let t =
    match key with
    | "kind" -> (
        match st.tok with
        | Tident k -> (
            bump st;
            match Node_test.kind_of_string k with
            | Some kind -> Node_test.Node_kind kind
            | None -> perr st (Printf.sprintf "unknown node kind %S" k))
        | _ -> perr st "expected a node kind")
    | "datatype" -> (
        match st.tok with
        | Tiri s ->
            let i = iri_of st s in
            bump st;
            Node_test.Datatype i
        | _ -> perr st "expected a datatype IRI")
    | "minExclusive" -> Node_test.Min_exclusive (parse_literal st)
    | "minInclusive" -> Node_test.Min_inclusive (parse_literal st)
    | "maxExclusive" -> Node_test.Max_exclusive (parse_literal st)
    | "maxInclusive" -> Node_test.Max_inclusive (parse_literal st)
    | "minLength" -> (
        match st.tok with
        | Tint n -> bump st; Node_test.Min_length n
        | _ -> perr st "expected an integer")
    | "maxLength" -> (
        match st.tok with
        | Tint n -> bump st; Node_test.Max_length n
        | _ -> perr st "expected an integer")
    | "pattern" -> (
        match st.tok with
        | Tstring regex ->
            bump st;
            let flags =
              if st.tok = Tcomma then begin
                bump st;
                (match st.tok with
                 | Tident "flags" -> (
                     bump st;
                     expect st Teq "'='";
                     match st.tok with
                     | Tstring f -> bump st; Some f
                     | _ -> perr st "expected a flags string")
                 | _ -> perr st "expected 'flags'")
              end
              else None
            in
            Node_test.Pattern { regex; flags }
        | _ -> perr st "expected a pattern string")
    | "lang" -> (
        match st.tok with
        | Tstring range -> bump st; Node_test.Language range
        | _ -> perr st "expected a language range string")
    | k -> perr st (Printf.sprintf "unknown test keyword %S" k)
  in
  expect st Trpar "')'";
  Shape.Test t

(* --- shapes ------------------------------------------------------- *)

let parse_operand st =
  match st.tok with
  | Tident "id" ->
      bump st;
      Shape.Id
  | _ -> Shape.Path (parse_path_alt st)

let parse_prop_arg st =
  match st.tok with
  | Tiri s ->
      let i = iri_of st s in
      bump st;
      i
  | _ -> perr st "expected a property IRI"

let rec parse_shape st = parse_or st

and parse_or st =
  let first = parse_and st in
  let rec go acc =
    if st.tok = Tpipe then begin
      bump st;
      go (parse_and st :: acc)
    end
    else
      match acc with [ s ] -> s | l -> Shape.Or (List.rev l)
  in
  go [ first ]

and parse_and st =
  let first = parse_unary st in
  let rec go acc =
    if st.tok = Tamp then begin
      bump st;
      go (parse_unary st :: acc)
    end
    else
      match acc with [ s ] -> s | l -> Shape.And (List.rev l)
  in
  go [ first ]

and parse_unary st =
  match st.tok with
  | Tbang ->
      bump st;
      Shape.Not (parse_unary st)
  | Tge ->
      bump st;
      let n =
        match st.tok with
        | Tint n -> bump st; n
        | _ -> perr st "expected a count after '>='"
      in
      let e = parse_path_alt st in
      expect st Tdot "'.'";
      Shape.Ge (n, e, parse_unary st)
  | Tle ->
      bump st;
      let n =
        match st.tok with
        | Tint n -> bump st; n
        | _ -> perr st "expected a count after '<='"
      in
      let e = parse_path_alt st in
      expect st Tdot "'.'";
      Shape.Le (n, e, parse_unary st)
  | Tident "forall" ->
      bump st;
      let e = parse_path_alt st in
      expect st Tdot "'.'";
      Shape.Forall (e, parse_unary st)
  | _ -> parse_atom st

and parse_atom st =
  match st.tok with
  | Tlpar ->
      bump st;
      let s = parse_shape st in
      expect st Trpar "')'";
      s
  | Tident "top" -> bump st; Shape.Top
  | Tident "bottom" -> bump st; Shape.Bottom
  | Tident "shape" ->
      bump st;
      expect st Tlpar "'('";
      let at = st.tok_pos in
      let name = parse_term st in
      expect st Trpar "')'";
      (match st.schema with
       | Some h when Schema.find h name = None ->
           raise
             (Err
                { position = at;
                  message = Format.asprintf "undefined shape %a" Term.pp name })
       | _ -> ());
      Shape.Has_shape name
  | Tident "hasValue" ->
      bump st;
      expect st Tlpar "'('";
      let c = parse_term st in
      expect st Trpar "')'";
      Shape.Has_value c
  | Tident "test" ->
      bump st;
      expect st Tlpar "'('";
      parse_test st
  | Tident "eq" ->
      bump st;
      expect st Tlpar "'('";
      let op = parse_operand st in
      expect st Tcomma "','";
      let p = parse_prop_arg st in
      expect st Trpar "')'";
      Shape.Eq (op, p)
  | Tident "disj" ->
      bump st;
      expect st Tlpar "'('";
      let op = parse_operand st in
      expect st Tcomma "','";
      let p = parse_prop_arg st in
      expect st Trpar "')'";
      Shape.Disj (op, p)
  | Tident "closed" ->
      bump st;
      expect st Tlpar "'('";
      let rec props acc =
        match st.tok with
        | Trpar ->
            bump st;
            List.rev acc
        | Tcomma ->
            bump st;
            props acc
        | Tiri s ->
            let i = iri_of st s in
            bump st;
            props (i :: acc)
        | _ -> perr st "expected a property IRI or ')'"
      in
      Shape.Closed (Iri.Set.of_list (props []))
  | Tident "lessThan" -> parse_binary st (fun e p -> Shape.Less_than (e, p))
  | Tident "lessThanEq" ->
      parse_binary st (fun e p -> Shape.Less_than_eq (e, p))
  | Tident "moreThan" -> parse_binary st (fun e p -> Shape.More_than (e, p))
  | Tident "moreThanEq" ->
      parse_binary st (fun e p -> Shape.More_than_eq (e, p))
  | Tident "uniqueLang" ->
      bump st;
      expect st Tlpar "'('";
      let e = parse_path_alt st in
      expect st Trpar "')'";
      Shape.Unique_lang e
  | Tident w -> perr st (Printf.sprintf "unexpected keyword %S" w)
  | _ -> perr st "expected a shape"

and parse_binary st mk =
  bump st;
  expect st Tlpar "'('";
  let e = parse_path_alt st in
  expect st Tcomma "','";
  let p = parse_prop_arg st in
  expect st Trpar "')'";
  mk e p

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)
(* ------------------------------------------------------------------ *)

let init ?(namespaces = Namespace.default) ?schema src =
  let lx = { src; namespaces; pos = 0 } in
  let st = { lx; tok = Teof; tok_pos = 0; schema } in
  bump st;
  st

let parse ?namespaces ?schema src =
  try
    let st = init ?namespaces ?schema src in
    let s = parse_shape st in
    if st.tok <> Teof then perr st "trailing input after shape";
    Ok s
  with Err e -> Error e

let parse_exn ?namespaces src =
  match parse ?namespaces src with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "Shape_syntax: %a" pp_error e)

let parse_path ?namespaces src =
  try
    let st = init ?namespaces src in
    let e = parse_path_alt st in
    if st.tok <> Teof then perr st "trailing input after path";
    Ok e
  with Err e -> Error e

let parse_path_exn ?namespaces src =
  match parse_path ?namespaces src with
  | Ok e -> e
  | Error e -> failwith (Format.asprintf "Shape_syntax: %a" pp_error e)

let print ?(namespaces = Namespace.default) shape =
  Format.asprintf "%a"
    (Shape.pp_with (Namespace.pp_iri namespaces) (Namespace.pp_term namespaces))
    shape
