open Rdf
open Shacl

(* ------------------------------------------------------------------ *)
(* Resolution and normalization                                       *)
(* ------------------------------------------------------------------ *)

(* Inline every [Has_shape] through the (acyclic) schema, as Unsat does. *)
let rec resolve schema phi =
  match phi with
  | Shape.Has_shape s -> resolve schema (Schema.def_shape schema s)
  | _ -> Shape.map_children (resolve schema) phi

let resolved_nnf schema phi = Shape.nnf (resolve schema phi)

(* Path normalization: a canonical representative of the path's
   [[E]]^G semantics.  Sound because every rewrite is a relational
   identity: Alt is commutative/associative/idempotent, Seq is
   associative, Inv distributes ([E₁/E₂]⁻ = E₂⁻/E₁⁻, [E₁∪E₂]⁻ =
   E₁⁻∪E₂⁻, [E*]⁻ = [E⁻]*, [E?]⁻ = [E⁻]?, E⁻⁻ = E), and the closure
   operators absorb ([E**] = [E?*] = [E*?] = E*, [E??] = E?). *)
let rec flatten_seq = function
  | Rdf.Path.Seq (a, b) -> flatten_seq a @ flatten_seq b
  | e -> [ e ]

let rec flatten_alt = function
  | Rdf.Path.Alt (a, b) -> flatten_alt a @ flatten_alt b
  | e -> [ e ]

let rec norm_path e =
  match e with
  | Rdf.Path.Prop _ -> e
  | Rdf.Path.Inv inner -> norm_inv (norm_path inner)
  | Rdf.Path.Seq (a, b) ->
      Rdf.Path.seq_list (flatten_seq (norm_path a) @ flatten_seq (norm_path b))
  | Rdf.Path.Alt (a, b) ->
      let parts = flatten_alt (norm_path a) @ flatten_alt (norm_path b) in
      Rdf.Path.alt_list (List.sort_uniq Rdf.Path.compare parts)
  | Rdf.Path.Star inner -> (
      match norm_path inner with
      | Rdf.Path.Star x | Rdf.Path.Opt x -> Rdf.Path.Star x
      | x -> Rdf.Path.Star x)
  | Rdf.Path.Opt inner -> (
      match norm_path inner with
      | (Rdf.Path.Star _ | Rdf.Path.Opt _) as x -> x
      | x -> Rdf.Path.Opt x)

(* [norm_inv e] is the normal form of [Inv e], for [e] already normal. *)
and norm_inv = function
  | Rdf.Path.Prop _ as p -> Rdf.Path.Inv p
  | Rdf.Path.Inv x -> x
  | Rdf.Path.Seq _ as s ->
      Rdf.Path.seq_list (List.rev_map norm_inv (flatten_seq s))
  | Rdf.Path.Alt _ as a ->
      let parts = List.map norm_inv (flatten_alt a) in
      Rdf.Path.alt_list (List.sort_uniq Rdf.Path.compare parts)
  | Rdf.Path.Star x -> Rdf.Path.Star (norm_inv x)
  | Rdf.Path.Opt x -> Rdf.Path.Opt (norm_inv x)

(* Canonicalize an NNF shape for conformance-semantic comparison:
   normalize paths, flatten and sort conjunctions/disjunctions, and
   collapse the trivial quantifiers ([≥0 E.phi] ≡ T, [≥n E.⊥] ≡ ⊥ for
   n ≥ 1, [≤n E.phi] ≡ ⊥ for n < 0, [≤n E.⊥] ≡ T, [∀E.T] ≡ T).  Only
   conformance is preserved — NOT neighborhoods ([≥0 E.phi] traces
   witnesses, T traces nothing) — so canonical forms may be used for
   subsumption and equivalence but never substituted into fragment
   extraction. *)
let rec canon phi =
  match phi with
  | Shape.Top | Shape.Bottom | Shape.Has_shape _ | Shape.Test _
  | Shape.Has_value _ | Shape.Closed _
  | Shape.Eq (Shape.Id, _)
  | Shape.Disj (Shape.Id, _) ->
      phi
  | Shape.Eq (Shape.Path e, p) -> Shape.Eq (Shape.Path (norm_path e), p)
  | Shape.Disj (Shape.Path e, p) -> Shape.Disj (Shape.Path (norm_path e), p)
  | Shape.Less_than (e, p) -> Shape.Less_than (norm_path e, p)
  | Shape.Less_than_eq (e, p) -> Shape.Less_than_eq (norm_path e, p)
  | Shape.More_than (e, p) -> Shape.More_than (norm_path e, p)
  | Shape.More_than_eq (e, p) -> Shape.More_than_eq (norm_path e, p)
  | Shape.Unique_lang e -> Shape.Unique_lang (norm_path e)
  | Shape.Not psi -> Shape.not_ (canon psi)
  | Shape.And l -> (
      match Shape.and_ (List.map canon l) with
      | Shape.And l' -> (
          match List.sort_uniq Shape.compare l' with
          | [ x ] -> x
          | l'' -> Shape.And l'')
      | s -> s)
  | Shape.Or l -> (
      match Shape.or_ (List.map canon l) with
      | Shape.Or l' -> (
          match List.sort_uniq Shape.compare l' with
          | [ x ] -> x
          | l'' -> Shape.Or l'')
      | s -> s)
  | Shape.Ge (n, e, psi) ->
      if n = 0 then Shape.Top
      else
        let psi = canon psi in
        if Shape.equal psi Shape.Bottom then Shape.Bottom
        else Shape.Ge (n, norm_path e, psi)
  | Shape.Le (n, _, _) when n < 0 -> Shape.Bottom
  | Shape.Le (n, e, psi) ->
      let psi = canon psi in
      if Shape.equal psi Shape.Bottom then Shape.Top
      else Shape.Le (n, norm_path e, psi)
  | Shape.Forall (e, psi) ->
      let psi = canon psi in
      if Shape.equal psi Shape.Top then Shape.Top
      else Shape.Forall (norm_path e, psi)

let normalize schema phi = canon (resolved_nnf schema phi)

(* ------------------------------------------------------------------ *)
(* Node-test implication                                              *)
(* ------------------------------------------------------------------ *)

(* The set of term kinds a node kind admits, as (iri, blank, literal). *)
let kind_mask = function
  | Node_test.Iri_kind -> (true, false, false)
  | Node_test.Blank_kind -> (false, true, false)
  | Node_test.Literal_kind -> (false, false, true)
  | Node_test.Blank_or_iri -> (true, true, false)
  | Node_test.Blank_or_literal -> (false, true, true)
  | Node_test.Iri_or_literal -> (true, false, true)

let admits_literal k =
  let _, _, l = kind_mask k in
  l

(* Tests that can only be satisfied by a literal. *)
let literal_only = function
  | Node_test.Datatype _ | Node_test.Min_exclusive _ | Node_test.Min_inclusive _
  | Node_test.Max_exclusive _ | Node_test.Max_inclusive _
  | Node_test.Language _ ->
      true
  | _ -> false

(* [test_implies t1 t2]: every term satisfying [t1] satisfies [t2].
   Sound because [Literal.comparable] partitions literals into totally
   ordered value classes, so comparability is transitive and [lt]/[leq]
   chain within a class. *)
let test_implies t1 t2 =
  Node_test.equal t1 t2
  ||
  match t1, t2 with
  | Node_test.Node_kind k1, Node_test.Node_kind k2 ->
      let i1, b1, l1 = kind_mask k1 and i2, b2, l2 = kind_mask k2 in
      ((not i1) || i2) && ((not b1) || b2) && ((not l1) || l2)
  | t, Node_test.Node_kind k when literal_only t -> admits_literal k
  | Node_test.Language _, Node_test.Datatype d ->
      Iri.equal d Vocab.Rdf.lang_string
  | Node_test.Min_inclusive x, Node_test.Min_inclusive y
  | Node_test.Min_exclusive x, Node_test.Min_exclusive y
  | Node_test.Min_exclusive x, Node_test.Min_inclusive y ->
      Literal.leq y x
  | Node_test.Min_inclusive x, Node_test.Min_exclusive y ->
      Literal.lt y x
  | Node_test.Max_inclusive x, Node_test.Max_inclusive y
  | Node_test.Max_exclusive x, Node_test.Max_exclusive y
  | Node_test.Max_exclusive x, Node_test.Max_inclusive y ->
      Literal.leq x y
  | Node_test.Max_inclusive x, Node_test.Max_exclusive y ->
      Literal.lt x y
  | Node_test.Min_length a, Node_test.Min_length b -> a >= b
  | Node_test.Max_length a, Node_test.Max_length b -> a <= b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Subsumption                                                        *)
(* ------------------------------------------------------------------ *)

let negate phi = canon (Shape.nnf (Shape.not_ phi))

(* [leq a b] on canonical NNF shapes: [true] only when every node of
   every graph conforming to [a] conforms to [b].  Each rule is a sound
   entailment; the check is incomplete by design (Pareti et al. show the
   full problem needs a dedicated decision procedure). *)
let rec leq a b =
  Shape.equal a b
  || Shape.equal a Shape.Bottom
  || Shape.equal b Shape.Top
  (* universal decompositions first (complete for their connective) *)
  || (match b with Shape.And l -> List.for_all (fun c -> leq a c) l | _ -> false)
  || (match a with Shape.Or l -> List.for_all (fun d -> leq d b) l | _ -> false)
  (* then the existential ones *)
  || (match a with Shape.And l -> List.exists (fun c -> leq c b) l | _ -> false)
  || (match b with Shape.Or l -> List.exists (fun d -> leq a d) l | _ -> false)
  || atom_leq a b

and atom_leq a b =
  match a, b with
  | Shape.Test t1, Shape.Test t2 -> test_implies t1 t2
  | Shape.Has_value c, _ when Monotone.is_independent Schema.empty b ->
      (* [b]'s truth does not depend on the graph, and [a] pins the focus
         node to the constant [c]: evaluate [b] on [c] directly. *)
      Conformance.conforms Schema.empty Graph.empty c b
  | Shape.Ge (n, e, phi), Shape.Ge (m, e', psi) ->
      n >= m && Rdf.Path.equal e e' && leq phi psi
  | Shape.Le (n, e, phi), Shape.Le (m, e', psi) ->
      (* contravariant body: fewer [psi]-successors than [phi]-ones *)
      n <= m && Rdf.Path.equal e e' && leq psi phi
  | Shape.Forall (e, phi), Shape.Forall (e', psi) ->
      Rdf.Path.equal e e' && leq phi psi
  | Shape.Forall (e, phi), Shape.Le (_, e', psi) ->
      (* all successors satisfy [phi]; none satisfies [psi] when
         [psi ⊑ ¬phi], so any upper bound holds *)
      Rdf.Path.equal e e' && leq psi (negate phi)
  | Shape.Le (0, e, phi), Shape.Forall (e', psi) ->
      (* no successor satisfies [phi], i.e. all satisfy [¬phi] *)
      Rdf.Path.equal e e' && leq (negate phi) psi
  | Shape.Less_than (e, p), Shape.Less_than_eq (e', p') ->
      Rdf.Path.equal e e' && Iri.equal p p'
  | Shape.More_than (e, p), Shape.More_than_eq (e', p') ->
      Rdf.Path.equal e e' && Iri.equal p p'
  | Shape.Closed ps, Shape.Closed qs -> Iri.Set.subset ps qs
  | Shape.Not a', Shape.Not b' -> leq b' a'
  | _ -> false

(* Monotone closure: [a ∧ ¬b] unsatisfiable entails [a ⊑ b], and
   {!Unsat.is_unsatisfiable} is sound, so this fallback only adds sound
   edges (it catches e.g. contradictory node tests across the pair). *)
let subsumes_syntactic = leq

let subsumes_normalized a b =
  leq a b
  || Unsat.is_unsatisfiable Schema.empty (Shape.And [ a; Shape.not_ b ])

let subsumes schema a b =
  subsumes_normalized (normalize schema a) (normalize schema b)

let equivalent schema a b =
  let a = normalize schema a and b = normalize schema b in
  subsumes_normalized a b && subsumes_normalized b a

(* ------------------------------------------------------------------ *)
(* Redundant conjuncts                                                *)
(* ------------------------------------------------------------------ *)

let redundant_conjuncts schema phi =
  let resolved = resolved_nnf schema phi in
  let results = ref [] in
  let seen = Hashtbl.create 16 in
  Shape.iter_subshapes
    (function
      | Shape.And l ->
          let arr = Array.of_list (List.map (fun c -> c, canon c) l) in
          Array.iteri
            (fun i (ci, ni) ->
              Array.iteri
                (fun j (cj, nj) ->
                  if
                    i <> j
                    && (not (Shape.equal nj Shape.Top))
                    && (not (Shape.equal ni Shape.Bottom))
                    && subsumes_normalized ni nj
                    (* for mutually implied conjuncts report one order *)
                    && (i < j || not (subsumes_normalized nj ni))
                  then
                    let key = (cj, ci) in
                    if not (Hashtbl.mem seen key) then begin
                      Hashtbl.add seen key ();
                      results := (cj, ci) :: !results
                    end)
                arr)
            arr
      | _ -> ())
    resolved;
  List.rev !results

(* ------------------------------------------------------------------ *)
(* The schema's containment lattice                                   *)
(* ------------------------------------------------------------------ *)

type edge = { sub : int; sup : int; equivalent : bool }

type lattice = {
  defs : Schema.def array;
  edges : edge list;
  classes : int list list;
}

let lattice schema =
  let defs = Array.of_list (Schema.defs schema) in
  let n = Array.length defs in
  let norm =
    Array.map (fun (d : Schema.def) -> normalize schema d.shape) defs
  in
  (* The syntactic core only: the unsatisfiability fallback pays its
     simplifier cost on every one of the ~n² pairs that fail. *)
  let sub =
    Array.init n (fun i ->
        Array.init n (fun j -> i <> j && subsumes_syntactic norm.(i) norm.(j)))
  in
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto 0 do
      if sub.(i).(j) then
        edges := { sub = i; sup = j; equivalent = sub.(j).(i) } :: !edges
    done
  done;
  (* Equivalence classes: connected components of the mutual edges,
     each represented by its smallest index. *)
  let parent = Array.init n Fun.id in
  let rec root i = if parent.(i) = i then i else root parent.(i) in
  List.iter
    (fun e ->
      if e.equivalent then begin
        let a = root e.sub and b = root e.sup in
        if a <> b then parent.(max a b) <- min a b
      end)
    !edges;
  let members = Array.make n [] in
  for i = n - 1 downto 0 do
    members.(root i) <- i :: members.(root i)
  done;
  let classes =
    List.filter
      (fun c -> List.compare_length_with c 1 > 0)
      (Array.to_list members)
  in
  { defs; edges = !edges; classes }

let def_name l i = (l.defs.(i) : Schema.def).name

let pp_lattice ppf l =
  Format.fprintf ppf "lattice: %d shape(s)@." (Array.length l.defs);
  let section title sep edges =
    if edges <> [] then begin
      Format.fprintf ppf "%s:@." title;
      List.iter
        (fun e ->
          Format.fprintf ppf "  %a %s %a@." Term.pp (def_name l e.sub) sep
            Term.pp (def_name l e.sup))
        edges
    end
  in
  section "containments (sub [= sup)" "[="
    (List.filter (fun e -> not e.equivalent) l.edges);
  section "equivalences" "=="
    (List.filter (fun e -> e.equivalent && e.sub < e.sup) l.edges)

(* Hand-rolled JSON, as elsewhere in the repo (no JSON dependency). *)
let json_string s =
  let buf = Buffer.create (String.length s + 8) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let lattice_to_json l =
  let name i = json_string (Term.to_string (def_name l i)) in
  let names is = "[" ^ String.concat ", " (List.map name is) ^ "]" in
  let edge e =
    Printf.sprintf "    {\"sub\": %s, \"sup\": %s, \"equivalent\": %b}"
      (name e.sub) (name e.sup) e.equivalent
  in
  let block = function
    | [] -> "[]"
    | lines -> "[\n" ^ String.concat ",\n" lines ^ "\n  ]"
  in
  Printf.sprintf
    "{\n  \"shapes\": %s,\n  \"edges\": %s,\n  \"classes\": %s\n}\n"
    (names (List.init (Array.length l.defs) Fun.id))
    (block (List.map edge l.edges))
    (block (List.map (fun c -> "    " ^ names c) l.classes))
