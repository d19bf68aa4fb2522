(** Validation of graphs against schemas.

    A graph [G] conforms to a schema [H] if for every definition
    [(s, phi, tau) ∈ H] and every node [a] with [H,G,a ⊨ tau], also
    [H,G,a ⊨ phi].  The report records the outcome per (target node,
    shape definition) pair, in the spirit of SHACL validation reports. *)

type result = {
  focus : Rdf.Term.t;          (** the target node that was checked *)
  shape_name : Rdf.Term.t;     (** the shape definition it was checked against *)
  conforms : bool;
}

type report = {
  conforms : bool;             (** no violations *)
  results : result list;       (** one per (focus, definition) pair *)
}

val fast_targets : Rdf.Graph.t -> Shape.t -> Rdf.Term.Set.t option
(** Direct index-based evaluation of the real-SHACL target forms — node
    ([hasValue]), class, subjects-of, objects-of targets and unions
    thereof — or [None] when the shape is not of such a form.  Exposed
    for the fragment engine's candidate planner. *)

val target_reads : Shape.t -> Rdf.Iri.Set.t option
(** The predicates whose triples {!fast_targets} reads for this target
    form — [rdf:type] and [rdfs:subClassOf] for a class target, [p] for
    subjects-of/objects-of [p], none for node targets and [Bottom], the
    union over an [Or] — or [None] when [fast_targets] does not answer
    the form.  A change to the graph that touches none of them leaves
    the target set as it was. *)

val target_nodes :
  ?budget:Runtime.Budget.t ->
  Schema.t -> Rdf.Graph.t -> Schema.def -> Rdf.Term.Set.t
(** The nodes targeted by a definition.  The four real-SHACL target forms
    (node, class-based, subjects-of, objects-of) are answered directly
    from the graph indexes; arbitrary target shapes fall back to testing
    all graph nodes. *)

val validate : ?budget:Runtime.Budget.t -> Schema.t -> Rdf.Graph.t -> report
(** Evaluates [Schema.unfold h]; the report names the definitions as
    given.  When [budget] is given, conformance checking consumes it and the
    call may raise [Runtime.Budget.Exhausted]; use the engine's
    [Provenance.Engine.validate] for per-shape fault isolation. *)

val conforms : ?budget:Runtime.Budget.t -> Schema.t -> Rdf.Graph.t -> bool
(** [conforms h g] = [(validate h g).conforms], with early exit on the
    first violation. *)

val violations : report -> result list

val pp_report : Format.formatter -> report -> unit
