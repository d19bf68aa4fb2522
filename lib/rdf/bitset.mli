(** Fixed-universe bitsets over dense int ids.

    The batched path kernel ({!Path.eval_batch}) takes its source set as
    a packed bitset over the store's id universe: compact, and iterated
    in ascending id order. *)

type t

val of_list : int -> int list -> t
(** [of_list n ids] is the set of [ids] over the universe
    [{0, …, n-1}].  Raises [Invalid_argument] on an id outside it. *)

val iter : (int -> unit) -> t -> unit
(** Ascending id order — the order the per-node core visits nodes in,
    which the batch kernel's charge parity depends on. *)
