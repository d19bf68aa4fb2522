(** Monotonicity of shapes — the precondition of the paper's Conformance
    theorem (Theorem 4.1).

    A shape [phi] is {e monotone} when conformance survives graph growth:
    for all [G ⊆ G'] and nodes [v], if [v] conforms to [phi] in [G] then it
    conforms in [G'].  Theorem 4.1 guarantees that validating the schema
    fragment [Frag(G, H)] yields no new violations only when every target
    expression of [H] is monotone; a non-monotone target can acquire target
    nodes in the full graph that the fragment never saw.

    The check here is the standard syntactic under-approximation, computed
    mutually with {e antitonicity} (conformance survives graph shrinkage):

    - graph-independent shapes ([top], [bottom], [test], [hasValue]) are
      both monotone and antitone;
    - [∧] and [∨] preserve both properties componentwise;
    - [≥n E.phi] is monotone when [phi] is (path evaluation only grows);
    - [¬phi] is monotone iff [phi] is antitone, and vice versa;
    - [≤n E.phi] and [∀E.phi] are antitone (never monotone, unless
      graph-independent), as are [closed], [disj], the order comparisons
      and [uniqueLang];
    - [eq] is neither;
    - [hasShape(s)] inherits the property of its definition (an undefined
      reference behaves as [top], per [Schema.def_shape]).

    All four real-SHACL target forms (node, class, subjects-of,
    objects-of, and unions thereof) are monotone under this check. *)

val is_independent : Shacl.Schema.t -> Shacl.Shape.t -> bool
(** Whether the shape's truth value does not depend on the graph at all
    ([top], [bottom], node tests, [hasValue] and boolean combinations
    thereof).  Such shapes are both monotone and antitone. *)

val is_monotone : Shacl.Schema.t -> Shacl.Shape.t -> bool

val monotone_targets : Shacl.Schema.t -> bool
(** Whether every target expression of the schema is monotone — the
    Theorem 4.1 precondition for the whole schema. *)
