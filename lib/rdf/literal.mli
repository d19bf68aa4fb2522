(** RDF literals.

    A literal pairs a lexical form with a datatype IRI and, for
    [rdf:langString] literals, a language tag.  This module implements the
    two relations the paper's formalization assumes on the set [L] of
    literals:

    - the strict partial order [<] abstracting comparison of numeric,
      string, boolean and dateTime values ({!lt}, {!leq}), and
    - the equivalence [~] relating literals carrying the same language tag
      ({!same_language}). *)

type t
(** A literal term. *)

val make : ?lang:string -> ?datatype:Iri.t -> string -> t
(** [make lexical] builds a literal.  Without optional arguments the
    datatype is [xsd:string].  With [~lang] the datatype is forced to
    [rdf:langString] (passing both [~lang] and a [~datatype] other than
    [rdf:langString] raises [Invalid_argument]).  Language tags are
    normalized to lowercase. *)

val string : string -> t
(** [string s] is the [xsd:string] literal with lexical form [s]. *)

val lang_string : string -> lang:string -> t
(** [lang_string s ~lang] is a language-tagged string. *)

val int : int -> t
(** [int n] is an [xsd:integer] literal. *)

val float : float -> t
(** [float x] is an [xsd:double] literal. *)

val bool : bool -> t
(** [bool b] is an [xsd:boolean] literal. *)

val date_time : string -> t
(** [date_time s] is an [xsd:dateTime] literal with lexical form [s]
    (assumed to be ISO-8601 in a single timezone). *)

val lexical : t -> string
val datatype : t -> Iri.t
val lang : t -> string option

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order on literals as terms (by datatype, language, then lexical
    form); used for sets and maps, unrelated to the value order {!lt}. *)

val hash : t -> int

(** {1 Value space} *)

type value =
  | Num of float        (** numeric datatypes, compared as reals *)
  | Str of string       (** [xsd:string] and language-tagged strings *)
  | Bool of bool
  | Time of string      (** [xsd:date]/[xsd:dateTime], ISO-8601 lexical *)
  | Unknown             (** unrecognized datatype: incomparable *)

val value : t -> value
(** The interpreted value of the literal.  Ill-formed lexical forms for
    recognized datatypes yield [Unknown]. *)

type order =
  | Less
  | Equal          (** equal values: [1] and ["1.0"^^xsd:decimal] *)
  | Greater
  | Unordered      (** comparable but unordered: a numeric NaN *)
  | Incomparable   (** different value classes, or an [Unknown] value *)

val order : t -> t -> order
(** The value order between two literals, parsing each lexical form
    once.  {!lt}, {!leq} and {!comparable} are read off it. *)

val lt : t -> t -> bool
(** [lt a b] is the strict partial order [a < b] of the paper: defined on
    pairs of numerics, pairs of strings, pairs of booleans and pairs of
    dateTimes; [false] on incomparable pairs.  [order a b = Less]. *)

val leq : t -> t -> bool
(** [leq a b] is [a < b || a = b] where [=] is value equality on comparable
    values (so [leq (int 1) (make "1.0" ~datatype:xsd:decimal)] holds).
    [order a b] is [Less] or [Equal]. *)

val comparable : t -> t -> bool
(** Whether the two literals belong to the same comparable value class
    (two NaNs do).  [order a b <> Incomparable]. *)

val same_language : t -> t -> bool
(** The paper's [~] relation: both literals carry a language tag and the
    tags are equal (case-insensitively). *)

val language_matches : t -> range:string -> bool
(** Basic language-range matching as in SPARQL [langMatches]: range ["*"]
    matches any tagged literal; otherwise the tag must equal the range or
    start with [range ^ "-"], case-insensitively. *)

val pp : Format.formatter -> t -> unit
(** Prints in Turtle/N-Triples syntax, using plain-form abbreviation for
    [xsd:string]. *)

val canonical_int : t -> int option
(** [canonical_int l] is [Some n] when [l] has an integer datatype and a
    well-formed lexical form. *)
