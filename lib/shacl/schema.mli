(** Shape schemas ("shapes graphs").

    A schema is a finite set of shape definitions [(s, phi, tau)] — name,
    shape expression, target expression — with pairwise distinct names.
    Following the paper (and the current SHACL recommendation) only
    {e non-recursive} schemas are admitted: the reference graph over shape
    names must be acyclic. *)

type def = {
  name : Rdf.Term.t;     (** the shape name [s ∈ I ∪ B] *)
  shape : Shape.t;       (** the shape expression [phi] *)
  target : Shape.t;      (** the target expression [tau] ([Bottom] = no target) *)
}

type t

type error =
  | Duplicate_name of Rdf.Term.t
  | Recursive of Rdf.Term.t list
      (** A reference cycle, as the list of names along it. *)

val pp_error : Format.formatter -> error -> unit

val make : def list -> (t, error) result
val make_exn : def list -> t
(** Raises [Invalid_argument] on error. *)

val empty : t
val defs : t -> def list
val find : t -> Rdf.Term.t -> def option

val def_shape : t -> Rdf.Term.t -> Shape.t
(** [def(s, H)] of the paper: the shape expression defining [s], or [Top]
    when [s] has no definition (the behavior of real SHACL). *)

val targeted : def -> bool
(** Whether the definition has a target ([target <> Bottom]). *)

val def_references : def -> Rdf.Term.Set.t
(** Shape names referenced from the definition's shape or target. *)

val def_list : (string * Shape.t * Shape.t) list -> t
(** Convenience: build from [(name IRI string, shape, target)] triples. *)

val request_shapes : t -> Shape.t list
(** [{phi ∧ tau | (s, phi, tau) ∈ H}] — the request shapes the schema
    fragment is built from (Section 4). *)

val unfold : t -> t
(** The schema the evaluators run: every [hasShape(s)] whose [s] is an
    untargeted definition referenced exactly once in the schema (shapes
    and targets counted) is replaced, recursively, by [s]'s shape.
    Verdicts and neighborhoods are unchanged (Tables 1-2 define
    [hasShape(s)] by [def(s)], and schemas are acyclic).  Shared and
    targeted definitions keep their references.  Every definition stays,
    in order, under its name; no shape grows beyond the schema's size.
    Idempotent.  Whole-schema evaluation ([Validate.validate],
    [Engine.validate], [Engine.run], [Incremental.create]) applies it
    itself; loading, analysis and printing see the schema as given. *)

val pp : Format.formatter -> t -> unit
