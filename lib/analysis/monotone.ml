open Shacl

(* Shapes whose truth value does not depend on the graph at all: they are
   trivially both monotone and antitone, even under negation. *)
let rec independent schema phi =
  match phi with
  | Shape.Top | Shape.Bottom | Shape.Test _ | Shape.Has_value _ -> true
  | Shape.Has_shape s -> independent schema (Schema.def_shape schema s)
  | Shape.Not psi -> independent schema psi
  | Shape.And l | Shape.Or l -> List.for_all (independent schema) l
  | Shape.Ge (0, _, _) -> true
  | _ -> false

let rec mono schema phi =
  independent schema phi
  ||
  match phi with
  | Shape.Has_shape s -> mono schema (Schema.def_shape schema s)
  | Shape.And l | Shape.Or l -> List.for_all (mono schema) l
  | Shape.Ge (_, _, psi) -> mono schema psi
  | Shape.Not psi -> anti schema psi
  | _ -> false

(* [anti]: for all G ⊆ G', conformance in G' implies conformance in G. *)
and anti schema phi =
  independent schema phi
  ||
  match phi with
  | Shape.Has_shape s -> anti schema (Schema.def_shape schema s)
  | Shape.And l | Shape.Or l -> List.for_all (anti schema) l
  | Shape.Not psi -> mono schema psi
  | Shape.Le (_, _, psi) ->
      (* the count of psi-successors can only grow with the graph when psi
         is monotone, so <=n survives shrinkage *)
      mono schema psi
  | Shape.Forall (_, psi) ->
      (* fewer successors, each still conforming if psi is antitone *)
      anti schema psi
  | Shape.Closed _ | Shape.Disj _ | Shape.Less_than _ | Shape.Less_than_eq _
  | Shape.More_than _ | Shape.More_than_eq _ | Shape.Unique_lang _ ->
      (* universally quantified over graph edges: restricting the graph
         only removes quantified instances *)
      true
  | _ -> false

let is_independent = independent
let is_monotone = mono

let monotone_targets schema =
  List.for_all
    (fun (def : Schema.def) -> mono schema def.target)
    (Schema.defs schema)
