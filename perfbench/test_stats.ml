(* Unit tests of the benchmark's summary statistics. *)

open Perfbench

let check name cond = if not cond then failwith ("test_stats: " ^ name)
let close a b = Float.abs (a -. b) < 1e-9

let () =
  check "median odd" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "median empty" (Float.is_nan (Stats.median []));
  (* too few samples for ten to lie beyond any percentile *)
  check "tail none" (Stats.tail (List.init 10 float_of_int) = None);
  (* 11 samples: only the maximum's predecessor rank has ten beyond *)
  (match Stats.tail (List.init 11 float_of_int) with
  | Some t ->
      check "tail 11 value" (close t.value 0.);
      check "tail 11 pct" (close t.percentile (100. *. 1. /. 11.));
      check "tail 11 n" (t.samples = 11)
  | None -> check "tail 11" false);
  (* 1000 samples 1..1000, shuffled: p99 is the 990th value, 10 beyond *)
  let xs = List.init 1000 (fun i -> float_of_int ((i * 7919 mod 1000) + 1)) in
  (match Stats.tail xs with
  | Some t ->
      check "tail 1000 value" (close t.value 990.);
      check "tail 1000 pct" (close t.percentile 99.);
      check "tail 1000 beyond"
        (List.length (List.filter (fun x -> x > t.value) xs)
        = Stats.tail_beyond)
  | None -> check "tail 1000" false);
  check "failed_frac zero" (close (Stats.failed_frac ~failed:0 ~attempted:7) 0.);
  check "failed_frac" (close (Stats.failed_frac ~failed:1 ~attempted:4) 0.25);
  check "failed_frac nothing attempted"
    (match Stats.failed_frac ~failed:0 ~attempted:0 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  print_endline "test_stats: ok"
