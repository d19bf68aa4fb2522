(* Figure 3: the Vardi-distance-3 shape fragment over growing DBLP slices.

   The fragment of [≥1 (a⁻/a)³ . hasValue(hub)] retrieves every author at
   co-author distance ≤3 from the hub plus all authoredBy triples on the
   connecting paths.  As in the paper, the slices grow backwards in time
   (2021 down to 2010) and two engine configurations are compared —
   index-backed and naive scanning — plus, for reference, the
   instrumented validator of Section 5.2 as users run it
   ([Engine.fragment]: the verdict pass and its row collector). *)

open Workload

let run ~quick =
  Util.header "Figure 3: Vardi-distance-3 fragment over DBLP year slices";
  let papers_per_year = if quick then 60 else 200 in
  let authors = if quick then 300 else 1200 in
  let timeout = if quick then 15.0 else 120.0 in
  let g =
    Dblp.generate ~seed:11 ~years:(2010, 2021) ~papers_per_year ~authors
  in
  Printf.printf "full graph: %d triples\n\n" (Rdf.Graph.cardinal g);
  let shape = Dblp.vardi_shape ~distance:3 in
  let query = Provenance.To_sparql.fragment_query [ shape ] in
  Printf.printf "%-6s %9s %9s %10s %11s %11s %12s\n" "from" "triples"
    "authors" "|fragment|" "indexed" "naive" "instrumented";
  List.iter
    (fun from_year ->
      let slice = Dblp.slice g ~from_year in
      let fragment = Provenance.Engine.fragment slice [ shape ] in
      let conforming =
        Shacl.Conformance.conforming_nodes Shacl.Schema.empty slice shape
      in
      let time_engine strategy =
        match
          Util.with_timeout ~seconds:timeout (fun () ->
              ignore (Sparql.Eval.eval ~strategy slice query))
        with
        | `Ok t -> Format.asprintf "%a" Util.pp_seconds t
        | `Timeout -> "timeout"
        | `Failed -> "error"
      in
      let t_instr, _ =
        Util.timed_avg ~runs:1 (fun () ->
            Provenance.Engine.fragment slice [ shape ])
      in
      Printf.printf "%-6d %9d %9d %10d %11s %11s %12s\n" from_year
        (Rdf.Graph.cardinal slice)
        (Rdf.Term.Set.cardinal conforming)
        (Rdf.Graph.cardinal fragment)
        (time_engine Sparql.Eval.Indexed)
        (time_engine Sparql.Eval.Naive)
        (Format.asprintf "%a" Util.pp_seconds t_instr))
    [ 2021; 2019; 2017; 2015; 2013; 2010 ];
  Printf.printf
    "\n(the paper observes comparable, steeply growing times on Jena TDB2 and\n\
     GraphDB; the naive engine stands in for a scan-based evaluator)\n"
