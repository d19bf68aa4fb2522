(** Conservative cross-shape containment (subsumption) analysis.

    [subsumes schema a b] returns [true] only when every node of every
    graph that conforms to [a] also conforms to [b] ([a ⊑ b]).  The
    check is a sound syntactic approximation: shapes are inlined
    through the (acyclic) schema, put in negation normal form, and
    canonicalized (paths normalized, conjunctions flattened and
    sorted, trivial quantifiers collapsed); then a structural [⊑] is
    decided by constraint-set inclusion, path equality up to
    normalization, cardinality and value-interval subsumption, and an
    unsatisfiability fallback ([a ∧ ¬b] unsat entails [a ⊑ b]).  A
    [false] answer means "not proven", not "not contained" — full
    SHACL containment requires a dedicated decision procedure (Pareti
    et al., Leinberger et al.). *)

(** [normalize schema phi] is the canonical conformance-equivalent
    form of [phi]: [Has_shape] references inlined, NNF, paths
    normalized, conjunctions/disjunctions flattened and sorted,
    trivial quantifiers collapsed.  Preserves which nodes conform but
    {e not} neighborhoods (e.g. [>=0 E.phi] becomes [Top], which
    traces nothing), so it must not be used for fragment
    extraction. *)
val normalize : Shacl.Schema.t -> Shacl.Shape.t -> Shacl.Shape.t

(** [resolved_nnf schema phi] inlines shape references and converts to
    NNF without canonicalizing.  Two shapes equal under this transform
    have identical checker behavior {e including} neighborhoods, so
    this is the safe key for sharing fragment-extraction work. *)
val resolved_nnf : Shacl.Schema.t -> Shacl.Shape.t -> Shacl.Shape.t

(** [norm_path e] is a canonical representative of [e] defining the
    same relation [[E]]^G on every graph. *)
val norm_path : Rdf.Path.t -> Rdf.Path.t

(** [subsumes_syntactic a b] is the syntactic core of
    {!subsumes_normalized}: the structural ⊑ rules without the
    unsatisfiability fallback.  Strictly weaker (sound, proves a subset
    of the edges) but much cheaper on the failing pairs, which makes it
    the right test for {!lattice}'s all-pairs sweep. *)
val subsumes_syntactic : Shacl.Shape.t -> Shacl.Shape.t -> bool

(** [subsumes_normalized a b] decides [a ⊑ b] for shapes already in
    {!normalize}d form (skips re-normalization). *)
val subsumes_normalized : Shacl.Shape.t -> Shacl.Shape.t -> bool

(** [subsumes schema a b]: sound, incomplete [a ⊑ b]. *)
val subsumes : Shacl.Schema.t -> Shacl.Shape.t -> Shacl.Shape.t -> bool

(** [equivalent schema a b] is mutual subsumption. *)
val equivalent : Shacl.Schema.t -> Shacl.Shape.t -> Shacl.Shape.t -> bool

(** [test_implies t1 t2]: every term satisfying node test [t1]
    satisfies [t2]. *)
val test_implies : Shacl.Node_test.t -> Shacl.Node_test.t -> bool

(** [redundant_conjuncts schema phi] lists pairs [(redundant, implier)]
    of syntactic conjuncts appearing together in some conjunction of
    the resolved NNF of [phi] where [implier ⊑ redundant], i.e. the
    [redundant] conjunct can never rule out a node that [implier]
    admits.  Detection runs before canonicalization so duplicated
    conjuncts are reported rather than silently merged. *)
val redundant_conjuncts :
  Shacl.Schema.t -> Shacl.Shape.t -> (Shacl.Shape.t * Shacl.Shape.t) list

(** {1 The containment lattice of a schema}

    Every proven containment between the definitions of a schema, and
    the equivalence classes they induce.  The lattice is static: it
    depends only on the schema, never on a data graph.  The [analyze]
    command prints it. *)

type edge = {
  sub : int;  (** index, in [Schema.defs] order, of the contained shape *)
  sup : int;  (** index of the containing shape *)
  equivalent : bool;  (** the reverse containment is proven too *)
}

type lattice = {
  defs : Shacl.Schema.def array;  (** in [Schema.defs] order *)
  edges : edge list;
      (** every proven [sub ⊑ sup] between distinct definitions, by
          [sub] then [sup] *)
  classes : int list list;
      (** the equivalence classes with more than one member, each in
          index order, ordered by smallest member *)
}

val lattice : Shacl.Schema.t -> lattice
(** The lattice over every definition, targeted or not, proven with
    {!subsumes_syntactic} on the {!normalize}d shapes.  Vacuous edges
    (an unsatisfiable [sub], a tautological [sup]) are kept. *)

val pp_lattice : Format.formatter -> lattice -> unit
(** The shape count, then the strict containments ([sub \[= sup]) and
    the equivalences ([a == b], each pair once). *)

val lattice_to_json : lattice -> string
(** The shapes, every edge and the classes as a JSON document. *)
