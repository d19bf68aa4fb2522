type t = {
  mutable memo_lookups : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable path_evals : int;
  mutable store_lookups : int;
}

let create () =
  { memo_lookups = 0;
    memo_hits = 0;
    memo_misses = 0;
    path_evals = 0;
    store_lookups = 0 }

let add ~into c =
  into.memo_lookups <- into.memo_lookups + c.memo_lookups;
  into.memo_hits <- into.memo_hits + c.memo_hits;
  into.memo_misses <- into.memo_misses + c.memo_misses;
  into.path_evals <- into.path_evals + c.path_evals;
  into.store_lookups <- into.store_lookups + c.store_lookups

let total cs =
  let t = create () in
  List.iter (fun c -> add ~into:t c) cs;
  t
