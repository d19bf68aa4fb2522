(** Prefix tables for compact IRI rendering and parsing. *)

type t
(** A mapping between prefixes (like ["rdf"]) and namespace IRIs. *)

val empty : t

val default : t
(** Bindings for [rdf], [rdfs], [xsd], [sh] and [ex]
    (["http://example.org/"]). *)

val add : string -> string -> t -> t
(** [add prefix namespace t]; later bindings shadow earlier ones. *)

val bindings : t -> (string * string) list

val expand : t -> string -> string option
(** [expand t "rdf:type"] resolves a prefixed name to a full IRI string.
    Returns [None] when the prefix is unbound or the string has no colon. *)

val node : t -> string -> (Term.t, string) result
(** [node t src] reads a focus node as the CLI and the server take it:
    [<iri>], a prefixed name {!expand}ed against [t], or else [src]
    itself as an IRI.  An [src] that opens with [<] but does not close
    with [>] is an error, with a message naming [src]. *)

val binding : t -> Iri.t -> (string * string) option
(** [binding t iri] is the binding [(prefix, namespace)] that {!shorten}
    uses for [iri]: the most recent one whose non-empty namespace is a
    prefix of [iri] with a well-formed local name after it.  Allocates
    only the result. *)

val shorten : t -> Iri.t -> string option
(** [shorten t iri] is [Some "pfx:local"] when some bound namespace is a
    prefix of [iri] and the remainder is a well-formed local name. *)

val pp_iri : t -> Format.formatter -> Iri.t -> unit
(** Prints the prefixed form when possible, [<iri>] otherwise. *)

val pp_term : t -> Format.formatter -> Term.t -> unit
