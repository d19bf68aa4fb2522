(* The domain pool shared by the engine and the incremental build. *)

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [pop] is the only cross-domain synchronization point on the hot
   path. *)
let make_queue items =
  let queue = ref items in
  let lock = Mutex.create () in
  fun () ->
    with_lock lock (fun () ->
        match !queue with
        | [] -> None
        | x :: rest ->
            queue := rest;
            Some x)

(* [jobs] is capped at the hardware's recommended domain count —
   oversubscribing domains on fewer cores only buys stop-the-world GC
   barriers and OS timesharing (the Domain documentation advises
   against it).  Callers distribute work by their own [jobs] before the
   pool, so what they compute at a fixed -j does not depend on the
   machine; only which worker drains which item does.  The index lets
   each worker own a private accumulator.  Each domain body is wrapped
   so that an exception cannot tear down the pool mid-join: every domain
   is always joined — leaving the shared queue in a consistent, released
   state — and only then is the first captured error re-raised on the
   calling domain. *)
let spawn_pool ~jobs worker =
  let n = min jobs (Domain.recommended_domain_count ()) in
  if n <= 1 then worker 0
  else
    let domains =
      List.init n (fun w ->
          Domain.spawn (fun () ->
              match worker w with () -> None | exception e -> Some e))
    in
    match List.filter_map Domain.join domains with
    | [] -> ()
    | e :: _ -> raise e

let iter ~jobs f items =
  let pop = make_queue items in
  spawn_pool ~jobs (fun _ ->
      let rec drain () =
        match pop () with
        | None -> ()
        | Some item ->
            f item;
            drain ()
      in
      drain ())
