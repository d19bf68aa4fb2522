(** Concrete text syntax for shapes.

    A human-readable syntax mirroring the paper's logical notation:

    {v
    >=1 ex:author . >=1 rdf:type/rdfs:subClassOf* . hasValue(ex:Student)
    !disj(ex:friend, ex:colleague)
    <=1 ex:author . !(>=1 rdf:type . hasValue(ex:Student))
    forall ex:friend . >=1 ex:likes . hasValue(ex:PingPong)
    top & closed(ex:name, ex:age) | eq(id, ex:self)
    v}

    Operators, loosest to tightest: [|] (or), [&] (and), quantifiers
    ([>=n E .], [<=n E .], [forall E .]) and [!].  Quantifier bodies
    extend through a following [!]/quantifier chain but not across [&]
    or [|]; parenthesize to include them.  Path expressions use SPARQL
    property-path notation ([/], [|], [^], [*], [?], [+]).  Prefixed
    names are resolved against a namespace table
    ({!Rdf.Namespace.default} by default).

    {!Shape.pp} (and {!print} here) emit this syntax, and
    [parse (print s) = s] for every shape. *)

type error = { position : int; message : string }

val pp_error : Format.formatter -> error -> unit

val parse :
  ?namespaces:Rdf.Namespace.t ->
  ?schema:Schema.t ->
  string ->
  (Shape.t, error) result
(** With [schema], a request shape is read against that schema: a
    [shape(s)] naming none of its definitions is an error at [s], not
    the [top] that {!Schema.def_shape} reads for a schema-internal
    reference. *)

val parse_exn : ?namespaces:Rdf.Namespace.t -> string -> Shape.t
(** Raises [Failure] with a located message. *)

val parse_path :
  ?namespaces:Rdf.Namespace.t -> string -> (Rdf.Path.t, error) result

val parse_path_exn : ?namespaces:Rdf.Namespace.t -> string -> Rdf.Path.t

val print : ?namespaces:Rdf.Namespace.t -> Shape.t -> string
(** Render with prefixed names where possible. *)
