(* Loading: Turtle text to a frozen graph in one pass.

   Serializes a generated Kg graph and times [Turtle.parse] on the text
   — lexing, interning and the store build; the maps are built on first
   read, not here — with the GC's allocation counters around each run.
   Quick size is the perfbench kg-cli graph (6,000 individuals, ~29k
   triples); --full is 20,000 individuals (~96k triples), the paper's
   Sec. 5 scale.

   [identical] checks the loaded graph, not the timing: it is frozen and
   equal to the source graph; its maps (built from the store when first
   read) answer [objects], [subjects] and [predicates_between] for every
   key of the map-built graph ([Graph.of_list]) alike; and its store
   equals both the comparison-sort build ([Store.patch] of the empty
   store) and [Store.of_triples] on the triples shuffled and duplicated.

   It also times [Turtle.to_string] on the loaded graph (the writer
   walks the store's rows) and on its builder-maps twin ([Graph.thaw]:
   the maps built from the store, no store, so the writer walks the
   maps), and [identical] requires both to print the source's text byte
   for byte.  Results go to BENCH_load.json. *)

open Rdf

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* Live heap words once everything unreachable is collected. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let shuffled_twice ~seed l =
  let a = Array.of_list (l @ l) in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let same_maps ~reference g =
  Graph.fold
    (fun tr ok ->
      ok
      &&
      let s = Triple.subject tr and p = Triple.predicate tr
      and o = Triple.object_ tr in
      Term.Set.equal (Graph.objects g s p) (Graph.objects reference s p)
      && Term.Set.equal (Graph.subjects g p o) (Graph.subjects reference p o)
      && Iri.Set.equal
           (Graph.predicates_between g s o)
           (Graph.predicates_between reference s o))
    reference true

let identical source parsed =
  let triples = Graph.to_list source in
  let reference = Graph.of_list triples in
  Graph.frozen parsed && Graph.equal parsed source
  && same_maps ~reference parsed
  &&
  match Graph.store parsed with
  | None -> false
  | Some st ->
      Store.equal st
        (Store.patch (Store.of_triples [||]) ~removes:[] ~adds:triples)
      && Store.equal st (Store.of_triples (shuffled_twice ~seed:7 triples))

type sample = { secs : float; minor : float; major : float }

let run ~quick =
  Util.header "Loading: Turtle text to a frozen graph";
  let individuals = if quick then 6000 else 20000 in
  let runs = if quick then 7 else 5 in
  let source = Workload.Kg.generate ~seed:1 ~individuals in
  let text = Turtle.to_string source in
  let before = live_words () in
  let parsed = ref Graph.empty in
  let samples =
    List.init runs (fun _ ->
        parsed := Graph.empty;
        Gc.compact ();
        let minor0, _, major0 = Gc.counters () in
        let secs, g = Util.time (fun () -> Turtle.parse_exn text) in
        let minor1, _, major1 = Gc.counters () in
        parsed := g;
        { secs; minor = minor1 -. minor0; major = major1 -. major0 })
  in
  let heap = live_words () - before in
  let parsed = !parsed in
  let by_secs = List.sort (fun a b -> Float.compare a.secs b.secs) samples in
  let best = List.hd by_secs and median = List.nth by_secs (runs / 2) in
  let triples = Graph.cardinal parsed in
  let terms =
    match Graph.store parsed with Some st -> Store.n_terms st | None -> 0
  in
  let median_secs f =
    let times =
      List.init runs (fun _ -> fst (Util.time f)) |> List.sort Float.compare
    in
    List.nth times (runs / 2)
  in
  let maps_twin = Graph.thaw parsed in
  let ser_frozen = median_secs (fun () -> Turtle.to_string parsed)
  and ser_maps = median_secs (fun () -> Turtle.to_string maps_twin) in
  let same_text =
    String.equal (Turtle.to_string parsed) text
    && String.equal (Turtle.to_string maps_twin) text
  in
  let identical = identical source parsed && same_text in
  Printf.printf
    "%d individuals: %d triples, %d terms, %.1f MB of Turtle\n\
     Turtle.parse: best %s, median %s of %d; %.0f minor + %.0f major \
     words; loaded graph %.1f MB live\n\
     Turtle.to_string: median %s from the store's rows, %s from the maps\n\
     identical to the builders: %b\n"
    individuals triples terms
    (float_of_int (String.length text) /. 1048576.)
    (Format.asprintf "%a" Util.pp_seconds best.secs)
    (Format.asprintf "%a" Util.pp_seconds median.secs)
    runs median.minor median.major (mb heap)
    (Format.asprintf "%a" Util.pp_seconds ser_frozen)
    (Format.asprintf "%a" Util.pp_seconds ser_maps)
    identical;
  let oc = open_out "BENCH_load.json" in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"Turtle text to a frozen graph\",\n\
    \  \"workload\": \"Kg.generate ~seed:1 ~individuals:%d\",\n\
    \  \"turtle_bytes\": %d,\n\
    \  \"triples\": %d,\n\
    \  \"terms\": %d,\n\
    \  \"runs\": %d,\n\
    \  \"parse_seconds_best\": %.6f,\n\
    \  \"parse_seconds_median\": %.6f,\n\
    \  \"minor_words\": %.0f,\n\
    \  \"major_words\": %.0f,\n\
    \  \"heap_mb\": %.2f,\n\
    \  \"serialize_seconds_median\": { \"frozen\": %.6f, \"maps\": %.6f },\n\
    \  \"identical\": %b\n\
     }\n"
    individuals (String.length text) triples terms runs best.secs median.secs
    median.minor median.major (mb heap) ser_frozen ser_maps identical;
  close_out oc;
  Printf.printf "wrote BENCH_load.json%s\n"
    (if identical then "" else "  ** MISMATCH vs builders **")
