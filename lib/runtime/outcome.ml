type reason =
  | Timed_out
  | Fuel_exhausted
  | Crashed of string

let reason_of_exn = function
  | Budget.Exhausted Budget.Deadline -> Timed_out
  | Budget.Exhausted Budget.Fuel -> Fuel_exhausted
  | Fault.Injected site -> Crashed ("injected fault at " ^ site)
  | e -> Crashed (Printexc.to_string e)

let pp_reason ppf = function
  | Timed_out -> Format.pp_print_string ppf "timed out"
  | Fuel_exhausted -> Format.pp_print_string ppf "fuel exhausted"
  | Crashed msg -> Format.fprintf ppf "crashed: %s" msg
