(* Figure 4: positioning shape fragments in the Linked Data Fragments
   spectrum.

   The paper's Figure 4 places shape fragments between triple pattern
   fragments (low server cost, many client requests) and full SPARQL
   endpoints (one request, high server cost).  This experiment makes that
   quantitative for retrieval tasks from the Section 4.1 catalogue: a TPF
   client answers the query with one request per instantiated triple
   pattern (joins done client-side); a shape-fragment interface answers
   with a single request returning the fragment; a SPARQL endpoint
   returns the exact CONSTRUCT image. *)

open Rdf
open Workload
open Sparql.Algebra

(* Flatten tree-query algebra into a single BGP when possible (required
   parts only). *)
let rec as_bgp alg =
  match alg with
  | Unit -> Some []
  | BGP tps -> Some tps
  | Join (a, b) -> (
      match as_bgp a, as_bgp b with
      | Some xs, Some ys -> Some (xs @ ys)
      | _ -> None)
  | Filter (_, a) -> as_bgp a (* filters are applied client-side for TPF *)
  | _ -> None

(* A TPF client: repeatedly pick the most selective pattern, issue one
   request per current binding, join client-side.  Returns (requests,
   transferred triples). *)
let tpf_client g patterns =
  let requests = ref 0 and transferred = ref 0 in
  let request pattern binding =
    incr requests;
    (* server answers a single triple pattern — instantiate with the
       binding first *)
    let instantiate = function
      | Var v -> (
          match Sparql.Binding.find v binding with
          | Some t -> Const t
          | None -> Var v)
      | c -> c
    in
    let pat =
      {
        tp_s = instantiate pattern.tp_s;
        tp_p = pattern.tp_p;
        tp_o = instantiate pattern.tp_o;
      }
    in
    let rows = Sparql.Eval.eval g (BGP [ pat ]) in
    transferred := !transferred + List.length rows;
    List.filter_map (fun row -> Sparql.Binding.merge binding row) rows
  in
  let rec go patterns bindings =
    match patterns with
    | [] -> bindings
    | pat :: rest ->
        let bindings =
          List.concat_map (fun b -> request pat b) bindings
        in
        if bindings = [] then [] else go rest bindings
  in
  ignore (go patterns [ Sparql.Binding.empty ]);
  !requests, !transferred

let run ~quick =
  Util.header "Figure 4: shape fragments in the LDF spectrum (requests vs transfer)";
  let g = Bsbm.generate ~seed:9 ~products:(if quick then 100 else 300) in
  Printf.printf "data graph: %d triples\n\n" (Graph.cardinal g);
  Printf.printf "%-5s | %13s | %19s | %16s\n" "query" "TPF interface"
    "shape fragment" "SPARQL endpoint";
  Printf.printf "%-5s | %6s %6s | %8s %10s | %6s %9s\n" "" "reqs" "xfer"
    "reqs" "xfer" "reqs" "xfer";
  List.iter
    (fun id ->
      match List.find_opt (fun (q : Queries.t) -> q.Queries.id = id) Queries.all with
      | None -> ()
      | Some q -> (
          match q.Queries.expressibility with
          | Queries.Not_expressible _ -> ()
          | Queries.Shape_fragment { shape; _ } -> (
              match as_bgp q.Queries.where with
              | None -> ()
              | Some patterns ->
                  let tpf_reqs, tpf_xfer = tpf_client g patterns in
                  let fragment = Provenance.Engine.fragment g [ shape ] in
                  let image = Queries.run_construct g q in
                  Printf.printf "%-5s | %6d %6d | %8d %10d | %6d %9d\n" id
                    tpf_reqs tpf_xfer 1
                    (Graph.cardinal fragment)
                    1 (Graph.cardinal image))))
    [ "W01"; "B02"; "W05"; "W09"; "B08"; "W22" ];
  Printf.printf
    "\n(one shape-fragment request replaces hundreds of TPF requests, while\n\
     transferring close to the exact SPARQL answer — the positioning of\n\
     the paper's Figure 4)\n"
