(* Benchmark harness: generates one workload's inputs from the seed,
   writes them to files, then either drives the shaclprov binary end to
   end (--trace 0) or measures each library layer in-process (--trace
   1).  Prints a human-readable summary, then the result as one JSON
   line.  Exits 1 when any output was wrong.

     harness.exe --bin BIN --workload NAME --seed N --seconds S --trace 0|1 *)

open Perfbench

let usage () =
  prerr_endline
    "usage: harness.exe --bin BIN --workload kg-cli|serve-read|serve-write \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload =
    match List.assoc_opt (get "workload") Inputs.workloads with
    | Some w -> w
    | None -> usage ()
  in
  let bin = get "bin" and seed = int "seed" and seconds = int "seconds" in
  let trace = int "trace" = 1 in
  let name = Inputs.name workload in
  let dir =
    Printf.sprintf ".perfbench-work/%s-%d-%d" name seed (Unix.getpid ())
  in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let tally = Tally.create () in
  let env =
    { E2e.bin; dir; tally;
      data = Filename.concat dir "data.ttl";
      shapes = Filename.concat dir "shapes.ttl" }
  in
  let inst = Inputs.generate workload ~seed in
  Rdf.Turtle.write_file ~prefixes:Inputs.namespaces env.data inst.graph;
  Inputs.write_file env.shapes Inputs.survey_turtle;
  let size f = (Unix.stat f).Unix.st_size in
  Tally.info_str tally "workload" name;
  Tally.info_int tally "seed" seed;
  Tally.info_int tally "triples" (Rdf.Graph.cardinal inst.graph);
  Tally.info_int tally "data_bytes" (size env.data);
  Tally.info_int tally "shapes_bytes" (size env.shapes);
  Tally.info_int tally "cores" (Domain.recommended_domain_count ());
  Tally.info_str tally "ocaml" Sys.ocaml_version;
  Tally.info_int tally "trace" (if trace then 1 else 0);
  let t0 = Unix.gettimeofday () and steal0 = Proc.steal_s () in
  (match
     if trace then Layers.run env inst else E2e.run env inst ~seconds
   with
  | () -> ()
  | exception e ->
      Tally.op tally false ("benchmark aborted: " ^ Printexc.to_string e));
  (* CPU time the hypervisor stole during the measurement, as a share of
     the machine's CPU time: high values explain slow outlier runs *)
  Tally.info_num tally "steal_pct"
    ((Proc.steal_s () -. steal0) /. (Unix.gettimeofday () -. t0)
     /. float_of_int (Domain.recommended_domain_count ()) *. 100.0);
  Proc.kill_all ();
  Proc.rm_rf dir;
  (try Sys.rmdir ".perfbench-work" with Sys_error _ -> ());
  List.iter
    (fun (n, v, u) ->
      Tally.op tally (Float.is_finite v) (n ^ " was not measured");
      Printf.printf "%-40s %16.4f %-6s%s\n" n v u
        (if trace then "  -> " ^ Layers.target_of n else ""))
    (Tally.metrics tally);
  Printf.printf "info %s\n" (Tally.json_info tally);
  print_endline (Tally.result_line tally);
  exit (if tally.failed = 0 then 0 else 1)
