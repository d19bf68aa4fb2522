(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index).

   Usage:
     dune exec bench/main.exe                 # all experiments, quick sizes
     dune exec bench/main.exe -- fig1 --full  # one experiment, paper-ish sizes

   Experiments: fig1 fig2 fig3 query-survey tpf ldf ablations parallel
   containment batch incremental load *)

let experiments =
  [ "fig1", ("Figure 1: provenance extraction overhead", Exp_fig1.run);
    "fig2", ("Figure 2: provenance via SPARQL translation", Exp_fig2.run);
    "fig3", ("Figure 3: Vardi-distance-3 fragment", Exp_fig3.run);
    "query-survey", ("Section 4.1: 39/46 queries expressible", Exp_survey.run);
    "tpf", ("Proposition 6.2: TPF expressibility", Exp_tpf.run);
    "ldf", ("Figure 4: LDF-spectrum positioning", Exp_ldf.run);
    "ablations", ("Design-choice ablations", Exp_ablation.run);
    "parallel", ("Parallel fragment engine scaling", Exp_parallel.run);
    "containment", ("Cross-shape containment lattice", Exp_containment.run);
    "batch", ("Id-space path kernel: per-node vs batched fragments", Exp_batch.run);
    "incremental",
    ("Incremental revalidation vs full recomputation", Exp_incremental.run);
    "load", ("Loading: Turtle text to a frozen graph", Exp_load.run) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let quick = not full in
  let selected =
    List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args
  in
  let to_run =
    match selected with
    | [] -> experiments
    | names ->
        List.filter_map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some exp -> Some (name, exp)
            | None ->
                Printf.eprintf "unknown experiment %S; known: %s\n" name
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf
    "shaclprov experiment harness (%s sizes; pass --full for larger runs)\n"
    (if quick then "quick" else "full");
  List.iter (fun (_, (_, run)) -> run ~quick) to_run
