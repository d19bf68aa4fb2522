open Shacl

(* On NNF: [true] only when Table 2 assigns an empty neighborhood for
   every graph and node. *)
let rec trivial schema phi =
  match phi with
  | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _
  | Shape.Closed _ | Shape.Disj _ | Shape.Less_than _ | Shape.Less_than_eq _
  | Shape.More_than _ | Shape.More_than_eq _ | Shape.Unique_lang _ ->
      true
  | Shape.Has_shape s ->
      trivial schema (Shape.nnf (Schema.def_shape schema s))
  | Shape.Not inner -> (
      match inner with
      (* graph-independent atoms are witnessed by nothing either way;
         other negated atoms contribute violation-witness triples *)
      | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _ -> true
      | Shape.Has_shape s ->
          trivial schema (Shape.nnf (Shape.Not (Schema.def_shape schema s)))
      | _ -> false)
  | Shape.And l | Shape.Or l -> List.for_all (trivial schema) l
  | Shape.Le (n, _, _) when n < 0 -> true (* no node conforms *)
  | Shape.Le (_, _, psi) ->
      (* the witnesses traced are the successors satisfying ¬psi *)
      Unsat.is_unsatisfiable schema (Shape.not_ psi)
  | Shape.Ge _ | Shape.Forall _ | Shape.Eq _ -> false

let always_empty schema phi = trivial schema (Shape.nnf phi)
