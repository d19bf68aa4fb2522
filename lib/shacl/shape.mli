(** Shapes: the formal SHACL constraint language of the paper (Section 2).

    The grammar is

    {v
    F   := E | id
    phi := T | ⊥ | hasShape(s) | test(t) | hasValue(c)
         | eq(F, p) | disj(F, p) | closed(P)
         | lessThan(E, p) | lessThanEq(E, p) | uniqueLang(E)
         | ¬phi | phi ∧ phi | phi ∨ phi
         | ≥n E.phi | ≤n E.phi | ∀E.phi
    v}

    plus the [moreThan]/[moreThanEq] extension mentioned in Remark 2.3.
    Conjunction and disjunction are represented n-ary; [And []] is ⊤ and
    [Or []] is ⊥. *)

type operand =
  | Id                    (** the focus node itself — [id] in the paper *)
  | Path of Rdf.Path.t    (** nodes reached by a path expression *)

type t =
  | Top
  | Bottom
  | Has_shape of Rdf.Term.t          (** reference to a named shape *)
  | Test of Node_test.t
  | Has_value of Rdf.Term.t
  | Eq of operand * Rdf.Iri.t        (** [eq(F, p)] *)
  | Disj of operand * Rdf.Iri.t      (** [disj(F, p)] *)
  | Closed of Rdf.Iri.Set.t          (** [closed(P)] *)
  | Less_than of Rdf.Path.t * Rdf.Iri.t
  | Less_than_eq of Rdf.Path.t * Rdf.Iri.t
  | More_than of Rdf.Path.t * Rdf.Iri.t     (** extension (Remark 2.3) *)
  | More_than_eq of Rdf.Path.t * Rdf.Iri.t  (** extension (Remark 2.3) *)
  | Unique_lang of Rdf.Path.t
  | Not of t
  | And of t list
  | Or of t list
  | Ge of int * Rdf.Path.t * t       (** [≥n E.phi] *)
  | Le of int * Rdf.Path.t * t       (** [≤n E.phi] *)
  | Forall of Rdf.Path.t * t

(** {1 Smart constructors} *)

val and_ : t list -> t
(** Flattens nested conjunctions, drops [Top], collapses to [Bottom];
    a singleton conjunction is unwrapped. *)

val or_ : t list -> t
val not_ : t -> t
(** [not_ t] is [Not t] with double negation removed. *)

val exists : Rdf.Path.t -> t -> t
(** [exists e phi] is [Ge (1, e, phi)]. *)

val has_shape : string -> t
(** [has_shape s] references the named shape with IRI [s]. *)

val has_value_iri : string -> t

(** {1 Negation normal form} *)

val nnf : t -> t
(** Pushes negation down to atomic shapes (Section 3.1): De Morgan for
    [∧]/[∨], and
    [¬≥n E.phi ≡ ≤n-1 E.phi], [¬≤n E.phi ≡ ≥n+1 E.phi],
    [¬∀E.phi ≡ ≥1 E.¬phi].  [¬≥0 E.phi] becomes [≤-1 E.phi], which no
    node satisfies, rather than [⊥]: negating it again gives back
    [≥0 E.phi], so [nnf (Not (nnf phi))] and [nnf (Not phi)] agree on
    conformance {e and} on neighborhoods (the [≥0] form traces its
    witnesses, [⊤] would trace nothing).
    Quantifier bodies are normalized recursively.  [Has_shape] references
    are left in place (their definitions are normalized at use site, as in
    Table 2 rules 1–2). *)

val is_nnf : t -> bool
(** Whether negation occurs only directly above atomic shapes. *)

val is_atomic : t -> bool
(** Atomic shapes: the first three production lines of the grammar —
    everything except [¬], [∧], [∨] and the three quantifiers. *)

(** {1 Structure} *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Structural, with [closed(P)] compared by the set [P] (not by its
    tree layout).  A total order. *)

val fold_subshapes : (t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the shape and every (transitive) subshape, parent first.
    [Has_shape] references are not resolved. *)

val iter_subshapes : (t -> unit) -> t -> unit

val exists_subshape : (t -> bool) -> t -> bool
(** Whether some (possibly improper) subshape satisfies the predicate. *)

val map_children : (t -> t) -> t -> t
(** Rebuilds the shape with the function applied to each immediate
    subshape; atomic shapes are returned unchanged.  No smart-constructor
    normalization is applied. *)

val referenced_names : t -> Rdf.Term.Set.t
(** All [s] such that [hasShape(s)] occurs in the shape. *)

val size : t -> int
(** Number of AST nodes, counting paths as 1. *)

val constants : t -> Rdf.Term.Set.t
(** All terms [c] such that [hasValue(c)] occurs in the shape (used to
    seed target-node candidates). *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** The concrete syntax read back by {!Shape_syntax.parse}, with full
    IRIs. *)

val pp_with :
  (Format.formatter -> Rdf.Iri.t -> unit) ->
  (Format.formatter -> Rdf.Term.t -> unit) ->
  Format.formatter -> t -> unit
(** Like {!pp} with custom IRI and term printers (e.g. prefixed names). *)

val to_string : t -> string
