(** Evaluation budgets: wall-clock deadlines and evaluation fuel.

    A budget is threaded through the evaluation stack (conformance
    checking, neighborhood construction, SPARQL evaluation) and consumed
    at the existing instrumentation hook points: memo-table lookups and
    path-evaluation steps.  When either resource runs out, {!Exhausted}
    is raised at the next safe point, unwinding cleanly to whoever
    installed the budget — typically the fragment engine, which turns it
    into a per-shape failure ({!Outcome.reason}) instead of a crash.

    Budgets are shared across worker domains: the fuel counter is an
    atomic, the deadline an immutable absolute time, so a single budget
    bounds a whole parallel run.  The all-[unlimited] budget makes
    {!tick} a cheap no-op, so unbudgeted callers pay (almost) nothing. *)

type reason = Deadline | Fuel

exception Exhausted of reason
(** The budget ran out.  Raised by {!tick} and {!check}; safe points are
    exactly the call sites of those functions. *)

type t

val unlimited : t
(** No deadline, no fuel bound; {!tick} never raises. *)

val make : ?timeout:float -> ?fuel:int -> unit -> t
(** [make ~timeout ~fuel ()] starts the clock now: the deadline is
    [timeout] seconds from the call, and [fuel] evaluation steps may be
    spent.  Omitted components are unlimited. *)

val is_unlimited : t -> bool

val tick : t -> unit
(** Spend one unit of fuel and poll the deadline.  Raises {!Exhausted}
    when either is gone.  The deadline is polled on a sampled subset of
    ticks (every 32nd), so a tick costs one atomic decrement in the
    common case. *)

val step_hook : t -> unit -> unit
(** [step_hook t] is a callback spending one tick per call — made to be
    passed as [Rdf.Path.eval ~step] so deep path expressions are charged
    (and interrupted) proportionally to the work they do.  The shared
    no-op is returned for an unlimited budget. *)

val check : t -> unit
(** Poll the deadline (and already-spent fuel) without consuming fuel.
    Use at coarse-grained safe points — chunk boundaries, retry
    decisions — where an unconditional clock read is affordable. *)

val expired : t -> reason option
(** Like {!check} but returning the verdict instead of raising: [Some r]
    when the budget is already exhausted.  Used to decide whether a
    retry is worth attempting. *)

val seconds_left : t -> float option
(** Remaining wall-clock time, when a deadline is set. *)

val fuel_left : t -> int option
(** Remaining fuel, when a fuel bound is set (never negative). *)

val pp_reason : Format.formatter -> reason -> unit
(** ["deadline"] or ["fuel"]. *)
