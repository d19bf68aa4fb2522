(** Turtle reader and writer.

    Supports the Turtle subset needed to exchange data and SHACL shapes
    graphs: [@prefix]/[@base] (and SPARQL-style [PREFIX]/[BASE])
    directives, prefixed names, the [a] keyword, predicate-object lists
    ([;]) and object lists ([,]), anonymous blank nodes ([[ ... ]]),
    collections ([( ... )], producing [rdf:first]/[rdf:rest] lists),
    string literals with escapes (including long [""" """] strings),
    language tags, [^^] datatypes, and numeric/boolean shorthand.

    N-Triples documents are valid input as well. *)

type error = { file : string option; line : int; message : string }
(** A located parse error.  [file] is set by {!parse_file} so messages
    identify the offending document. *)

val pp_error : Format.formatter -> error -> unit

val parse : ?base:string -> string -> (Graph.t, error) result
(** Parse a Turtle document given as a string.  Total on arbitrary
    input: malformed bytes yield [Error], never an exception.

    The result is frozen ({!Graph.frozen}): the parser interns terms as
    it reads them and builds the {!Store.t} in one bulk pass, so a later
    {!Graph.freeze} costs nothing.  The maps are built on first read
    ({!Graph.of_store}), by the readers that need them.  A document with no
    triple gives {!Graph.empty}, which is unfrozen.  Anonymous nodes
    ([[]] and collection cells) get fresh labels [genid<N>], or another
    prefix when the document spells a [_:genid...] label itself, so a
    fresh label never equals a spelled one. *)

val parse_exn : ?base:string -> string -> Graph.t
(** Like {!parse}; raises [Failure] with a located message on error. *)

val parse_file : ?base:string -> string -> (Graph.t, error) result
(** Like {!parse}, with [error.file] set to the path.  An unreadable
    file ([Sys_error]) is reported as an [Error] at line 0. *)

val parse_file_exn : ?base:string -> string -> Graph.t

val to_string : ?prefixes:Namespace.t -> Graph.t -> string
(** The canonical Turtle of a graph ([prefixes] defaults to
    {!Namespace.default}).  Equal graphs print equal bytes, whatever
    their form (builder, frozen or row view):

    - First the prefix block: one [@prefix p: <ns> .] line for each
      prefix the body uses, sorted by name, then one empty line.  No
      block at all when no prefix is used, and nothing at all for the
      empty graph.
    - Then one block per subject, subjects in [Term.compare] order and
      each subject's statements in (predicate, object) order.  A block
      is [s p1 o1 ;] followed by one line [   p2 o2 ;] per further
      statement (three spaces), and ends with [ .] and a newline.
    - An IRI is written [p:local] with the most recent binding whose
      namespace it extends by a local name of letters, digits, [_], [-]
      and inner dots ({!Namespace.shorten}), and [<iri>] otherwise.
      Literal datatypes are never shortened: ["v"^^<dt>], with
      [xsd:string] left implicit and ["v"\@tag] for language strings.
      Lexical forms escape the double quote, the backslash, newline,
      carriage return and tab; blank nodes print as [_:label].

    One pass in SPO order, with no regrouping.  A frozen graph or a row
    view is printed from its store rows, each term rendered once; a
    builder graph from its SPO map. *)

val write_file : ?prefixes:Namespace.t -> string -> Graph.t -> unit
(** [to_string]'s bytes, written to a file. *)
