(** Sets of store ids as ascending, duplicate-free [int array]s — the
    value sets of the id-space path kernel ({!Path.Batch}) and of the
    provenance layer's verdict pass and row collector.  Ids ascend with
    terms, so an array decodes to the ascending sequence a [Term.Set]
    fold yields.  Every function assumes sorted, duplicate-free
    arguments and returns such an array. *)

val mem : int array -> int -> bool
(** Binary search. *)

val equal : int array -> int array -> bool
(** Element-wise equality; constant time on physically equal arrays. *)

val union : int array -> int array -> int array
(** Returns an argument itself when the other is empty. *)

val add : int array -> int -> int array
(** [add s x] is [s] itself when [x] is already a member. *)

val inter : int array -> int array -> int array
val diff : int array -> int array -> int array
val disjoint : int array -> int array -> bool

val filter : (int -> bool) -> int array -> int array
(** The members that satisfy the predicate, tested once each in
    ascending order.  Returns its argument itself when every member is
    kept, which lets memos that match arrays by physical identity (the
    kernel's whole-trace memo) recognize an unfiltered value set. *)

module Tbl : Hashtbl.S with type key = int
(** Hash tables on non-negative int keys (ids, or ids packed with a
    path or subshape number) with the identity hash: a probe skips the
    generic hash's C call. *)
