(** The domain pool shared by {!Engine} and {!Incremental}: a work queue
    and a fixed set of worker domains draining it. *)

val make_queue : 'a list -> unit -> 'a option
(** [make_queue items] is a mutex-protected [pop] over [items], in list
    order; [None] once they are exhausted.  Safe to call from any
    domain. *)

val spawn_pool : jobs:int -> (int -> unit) -> unit
(** [spawn_pool ~jobs worker] runs [worker 0 .. worker (n-1)] on [n]
    domains, [n] being [jobs] capped at
    [Domain.recommended_domain_count ()], and returns once all are
    joined.  With [n <= 1] it runs [worker 0] on the calling domain and
    spawns nothing.  If workers raise, every domain is still joined and
    then the first captured exception is re-raised. *)

val iter : jobs:int -> ('a -> unit) -> 'a list -> unit
(** [iter ~jobs f items] applies [f] to every item on a {!spawn_pool}
    of [jobs], each worker popping items off one {!make_queue} until
    none is left.  Which worker runs which item is not determined, so
    [f] should only write state that no other item touches. *)
