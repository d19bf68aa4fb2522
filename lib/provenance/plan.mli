(** Schema-level evaluation planner.

    [make schema] runs the {!Analysis.Containment} analysis over every
    pair of shape definitions and turns the proven containments into an
    evaluation plan, which the [analyze] command reports:

    - the {b skip DAG}: a proven [A ⊑ B] schedules [A] strictly before
      [B], so nodes already proven [A]-conformant need not be checked
      against [B] (equivalence cycles are broken towards the earlier
      definition);
    - {b levels}: a longest-path layering of the DAG — shapes within a
      level are independent and can run in parallel, levels run in
      order;
    - {b equivalence classes}: groups of definitions proven to accept
      exactly the same nodes;
    - {b shared paths}: path expressions (up to normalization) used by
      more than one definition — the sharing opportunities for the
      per-(path, node) memo table ({!Shacl.Path_memo}).

    Everything here is static: the plan depends only on the schema,
    never on a data graph, so it can be computed once and reused. *)

type edge = {
  sub : int;   (** index into [Schema.defs] order of the contained shape *)
  sup : int;   (** index of the containing shape *)
  equivalent : bool;  (** the reverse containment is also proven *)
}

type t = {
  defs : Shacl.Schema.def array;  (** in [Schema.defs] order *)
  edges : edge list;              (** all proven containments *)
  class_of : int array;           (** equivalence-class representative *)
  classes : int list array;       (** members, at each representative *)
  levels : int array;             (** execution level per definition *)
  skip_preds : int list array;
      (** per definition, the earlier-scheduled definitions whose
          conforming nodes it may skip *)
  shared_paths : (Rdf.Path.t * int) list;
      (** normalized paths used by [> 1] definitions, busiest first *)
}

val make : Shacl.Schema.t -> t

val n_defs : t -> int

val n_levels : t -> int

val order : t -> int list
(** Definition indices sorted by level (stable within a level). *)

val equivalence_classes : t -> int list list
(** Only the non-singleton classes. *)

val skippable : t -> int
(** How many definitions have at least one skip predecessor. *)

val pp : Format.formatter -> t -> unit
(** Human-readable lattice + plan. *)

val to_json : t -> string
(** The same information as a JSON document. *)
