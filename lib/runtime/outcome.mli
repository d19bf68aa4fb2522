(** Why a unit of resilient execution failed.

    The fragment engine evaluates many independent units of work (one
    per request shape); fault isolation means a unit that times out,
    runs out of fuel, or crashes is recorded with its {!reason} in the
    execution statistics while the run as a whole completes.  The
    Sufficiency theorem (Thm 3.4) makes this semantically sound: every
    neighborhood the engine did compute is independently valid, so
    partial output is correct output, just incomplete. *)

type reason =
  | Timed_out        (** the run's wall-clock deadline passed *)
  | Fuel_exhausted   (** the run's evaluation-fuel bound was spent *)
  | Crashed of string  (** any other exception; the payload describes it *)

val reason_of_exn : exn -> reason
(** Classify an exception caught at an isolation boundary:
    [Budget.Exhausted] maps to {!Timed_out} / {!Fuel_exhausted},
    [Fault.Injected] and everything else to {!Crashed} with a printed
    description. *)

val pp_reason : Format.formatter -> reason -> unit
