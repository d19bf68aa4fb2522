open Rdf

type operand = Id | Path of Rdf.Path.t

type t =
  | Top
  | Bottom
  | Has_shape of Term.t
  | Test of Node_test.t
  | Has_value of Term.t
  | Eq of operand * Iri.t
  | Disj of operand * Iri.t
  | Closed of Iri.Set.t
  | Less_than of Rdf.Path.t * Iri.t
  | Less_than_eq of Rdf.Path.t * Iri.t
  | More_than of Rdf.Path.t * Iri.t
  | More_than_eq of Rdf.Path.t * Iri.t
  | Unique_lang of Rdf.Path.t
  | Not of t
  | And of t list
  | Or of t list
  | Ge of int * Rdf.Path.t * t
  | Le of int * Rdf.Path.t * t
  | Forall of Rdf.Path.t * t

let and_ shapes =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | Top :: rest | And [] :: rest -> gather acc rest
    | Bottom :: _ -> None
    | And inner :: rest -> gather acc (inner @ rest)
    | s :: rest -> gather (s :: acc) rest
  in
  match gather [] shapes with
  | None -> Bottom
  | Some [] -> Top
  | Some [ s ] -> s
  | Some l -> And l

let or_ shapes =
  let rec gather acc = function
    | [] -> Some (List.rev acc)
    | Bottom :: rest | Or [] :: rest -> gather acc rest
    | Top :: _ -> None
    | Or inner :: rest -> gather acc (inner @ rest)
    | s :: rest -> gather (s :: acc) rest
  in
  match gather [] shapes with
  | None -> Top
  | Some [] -> Bottom
  | Some [ s ] -> s
  | Some l -> Or l

let not_ = function
  | Not s -> s
  | Top -> Bottom
  | Bottom -> Top
  | s -> Not s

let exists e phi = Ge (1, e, phi)
let has_shape s = Has_shape (Term.iri s)
let has_value_iri s = Has_value (Term.iri s)

let is_atomic = function
  | Top | Bottom | Has_shape _ | Test _ | Has_value _ | Eq _ | Disj _
  | Closed _ | Less_than _ | Less_than_eq _ | More_than _ | More_than_eq _
  | Unique_lang _ ->
      true
  | Not _ | And _ | Or _ | Ge _ | Le _ | Forall _ -> false

let rec nnf shape =
  match shape with
  | Top | Bottom | Has_shape _ | Test _ | Has_value _ | Eq _ | Disj _
  | Closed _ | Less_than _ | Less_than_eq _ | More_than _ | More_than_eq _
  | Unique_lang _ ->
      shape
  | And l -> And (List.map nnf l)
  | Or l -> Or (List.map nnf l)
  | Ge (n, e, phi) -> Ge (n, e, nnf phi)
  | Le (n, e, phi) -> Le (n, e, nnf phi)
  | Forall (e, phi) -> Forall (e, nnf phi)
  | Not inner -> (
      match inner with
      | Top -> Bottom
      | Bottom -> Top
      | Not phi -> nnf phi
      | And l -> Or (List.map (fun s -> nnf (Not s)) l)
      | Or l -> And (List.map (fun s -> nnf (Not s)) l)
      | Ge (n, e, phi) -> Le (n - 1, e, nnf phi)
      | Le (n, e, phi) -> Ge (n + 1, e, nnf phi)
      | Forall (e, phi) -> Ge (1, e, nnf (Not phi))
      | atomic -> Not atomic)

let rec is_nnf = function
  | Not s -> is_atomic s
  | And l | Or l -> List.for_all is_nnf l
  | Ge (_, _, s) | Le (_, _, s) | Forall (_, s) -> is_nnf s
  | s -> ignore (is_atomic s : bool); true

(* Structural, except that [closed(P)] compares [P] as a set: two
   equal [Iri.Set.t] built in different orders can differ in their tree
   layout, which [Stdlib.compare] would see.  Every other atom is
   set-free, and different constructors are ordered by tag. *)
let rec compare a b =
  if a == b then 0
  else
    match a, b with
    | Closed x, Closed y -> Iri.Set.compare x y
    | Not x, Not y -> compare x y
    | And l, And m | Or l, Or m -> List.compare compare l m
    | Ge (n, e, x), Ge (m, f, y) | Le (n, e, x), Le (m, f, y) ->
        let c = Int.compare n m in
        if c <> 0 then c else compare_quantified e x f y
    | Forall (e, x), Forall (f, y) -> compare_quantified e x f y
    | _ -> Stdlib.compare a b

and compare_quantified e x f y =
  let c = Rdf.Path.compare e f in
  if c <> 0 then c else compare x y

let equal a b = compare a b = 0

let rec fold_subshapes f shape acc =
  let acc = f shape acc in
  match shape with
  | Not s -> fold_subshapes f s acc
  | And l | Or l -> List.fold_left (fun acc s -> fold_subshapes f s acc) acc l
  | Ge (_, _, s) | Le (_, _, s) | Forall (_, s) -> fold_subshapes f s acc
  | _ -> acc

let iter_subshapes f shape = fold_subshapes (fun s () -> f s) shape ()

let exists_subshape pred shape =
  let exception Found in
  try
    iter_subshapes (fun s -> if pred s then raise Found) shape;
    false
  with Found -> true

let map_children f shape =
  match shape with
  | Top | Bottom | Has_shape _ | Test _ | Has_value _ | Eq _ | Disj _
  | Closed _ | Less_than _ | Less_than_eq _ | More_than _ | More_than_eq _
  | Unique_lang _ ->
      shape
  | Not s -> Not (f s)
  | And l -> And (List.map f l)
  | Or l -> Or (List.map f l)
  | Ge (n, e, s) -> Ge (n, e, f s)
  | Le (n, e, s) -> Le (n, e, f s)
  | Forall (e, s) -> Forall (e, f s)

let referenced_names shape =
  fold_subshapes
    (fun s acc ->
      match s with Has_shape name -> Term.Set.add name acc | _ -> acc)
    shape Term.Set.empty

let constants shape =
  fold_subshapes
    (fun s acc -> match s with Has_value c -> Term.Set.add c acc | _ -> acc)
    shape Term.Set.empty

let size shape = fold_subshapes (fun _ n -> n + 1) shape 0

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* Precedence: or(0) < and(1) < quantifier/not(2) < atom(3).
   Quantifier bodies are printed at level 2 so nested quantifiers read
   right-associatively without parentheses. *)
let pp_with pp_iri pp_term ppf shape =
  let pp_path ppf e = Rdf.Path.pp_with pp_iri ppf e in
  let pp_operand ppf = function
    | Id -> Format.pp_print_string ppf "id"
    | Path e -> pp_path ppf e
  in
  let rec go prec ppf shape =
    let paren needed body =
      if needed then Format.fprintf ppf "(%t)" body else body ppf
    in
    match shape with
    | Top -> Format.pp_print_string ppf "top"
    | Bottom -> Format.pp_print_string ppf "bottom"
    | Has_shape name -> Format.fprintf ppf "shape(%a)" pp_term name
    | Test t -> Node_test.pp_with pp_iri ppf t
    | Has_value c -> Format.fprintf ppf "hasValue(%a)" pp_term c
    | Eq (op, p) -> Format.fprintf ppf "eq(%a, %a)" pp_operand op pp_iri p
    | Disj (op, p) -> Format.fprintf ppf "disj(%a, %a)" pp_operand op pp_iri p
    | Closed ps ->
        Format.fprintf ppf "closed(%a)"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
             pp_iri)
          (Iri.Set.elements ps)
    | Less_than (e, p) ->
        Format.fprintf ppf "lessThan(%a, %a)" pp_path e pp_iri p
    | Less_than_eq (e, p) ->
        Format.fprintf ppf "lessThanEq(%a, %a)" pp_path e pp_iri p
    | More_than (e, p) ->
        Format.fprintf ppf "moreThan(%a, %a)" pp_path e pp_iri p
    | More_than_eq (e, p) ->
        Format.fprintf ppf "moreThanEq(%a, %a)" pp_path e pp_iri p
    | Unique_lang e -> Format.fprintf ppf "uniqueLang(%a)" pp_path e
    | Not s -> Format.fprintf ppf "!%a" (go 3) s
    | And l ->
        paren (prec > 1) (fun ppf ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf " &@ ")
              (go 2) ppf l)
    | Or l ->
        paren (prec > 0) (fun ppf ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf " |@ ")
              (go 1) ppf l)
    | Ge (n, e, s) ->
        paren (prec > 2) (fun ppf ->
            Format.fprintf ppf ">=%d %a . %a" n pp_path e (go 3) s)
    | Le (n, e, s) when n < 0 ->
        (* the normal form of [¬≥0 E.s]; the syntax has no negative
           counts, so it prints as the negation it came from *)
        go prec ppf (Not (Ge (0, e, s)))
    | Le (n, e, s) ->
        paren (prec > 2) (fun ppf ->
            Format.fprintf ppf "<=%d %a . %a" n pp_path e (go 3) s)
    | Forall (e, s) ->
        paren (prec > 2) (fun ppf ->
            Format.fprintf ppf "forall %a . %a" pp_path e (go 3) s)
  in
  Format.fprintf ppf "@[<hov>%a@]" (go 0) shape

let pp ppf shape = pp_with Iri.pp Term.pp ppf shape
let to_string shape = Format.asprintf "%a" pp shape
