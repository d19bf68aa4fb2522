(* Summary statistics for the benchmark's samples.  Pure functions, so
   the unit tests can pin them down exactly. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The middle sample; the mean of the two middle samples for an even
   count.  [nan] on no samples. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples that must lie beyond a reported tail percentile. *)
let tail_beyond = 10

type tail = {
  percentile : float;  (* e.g. 99.0 for the 99th percentile *)
  value : float;
  samples : int;       (* how many samples the tail was taken from *)
}

(* The highest percentile that has at least [tail_beyond] samples
   beyond it: with [n] sorted samples, the value at rank [n - 10], i.e.
   the [100 (n - 10) / n]-th percentile.  [None] below 11 samples.
   The percentile depends on [n] only, so runs with a fixed request
   count always report the same percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n <= tail_beyond then None
  else
    Some
      { percentile = 100.0 *. float_of_int (n - tail_beyond) /. float_of_int n;
        value = a.(n - tail_beyond - 1);
        samples = n }

(* Failed, shed, errored or mismatched operations over those attempted. *)
let failed_frac ~failed ~attempted =
  if attempted <= 0 then invalid_arg "Stats.failed_frac: nothing attempted"
  else float_of_int failed /. float_of_int attempted
