open Rdf

(* One node-keyed table per distinct (graph, path expression) pair.
   The path level is keyed structurally: physically distinct copies of
   the same path (e.g. the same class path parsed in two shapes) share
   one table, and a checker alternating between several compound paths
   pays one hash per lookup rather than repositioning a hot-list.

   The graph level is keyed by [Graph.uid]: a uid identifies a triple
   set (updates allocate a fresh uid, [Graph.freeze] keeps it), so a
   table that outlives one graph can never serve a result computed on
   an earlier triple set.

   The [base] is a second, read-only layer underneath the per-chunk
   table: the engine fills it up front with the batched kernel
   ([Rdf.Path.eval_batch]) — one kernel call per (path, source set) —
   and shares it across every worker domain.  Reads are safe to share
   because priming happens strictly before the pool spawns and nothing
   writes afterwards (a [Hashtbl] with no writers never resizes). *)
type base = {
  btables : (int * Path.t, (Term.t, Term.Set.t) Hashtbl.t) Hashtbl.t;
}

type t = {
  tables : (int * Path.t, (Term.t, Term.Set.t) Hashtbl.t) Hashtbl.t;
  base : base option;
}

let create ?base () = { tables = Hashtbl.create 16; base }
let base_create () = { btables = Hashtbl.create 16 }

let base_merge ~into b =
  Hashtbl.iter
    (fun key table ->
      match Hashtbl.find_opt into.btables key with
      | None -> Hashtbl.add into.btables key table
      | Some existing ->
          Hashtbl.iter (fun v set -> Hashtbl.replace existing v set) table)
    b.btables

(* A bare forward or inverse step is a single index lookup in the graph
   — re-evaluating it is as cheap as hashing the memo key, so caching
   those only adds overhead.  Compound paths (sequences, alternatives,
   closures) do real traversal work and are the ones worth sharing. *)
let worth_memoizing = function
  | Path.Prop _ | Path.Inv (Path.Prop _) -> false
  | _ -> true

let table_for t g e =
  let key = (Graph.uid g, e) in
  match Hashtbl.find_opt t.tables key with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 1024 in
      Hashtbl.add t.tables key table;
      table

let lookup_hook counters =
  match counters with
  | None -> ignore
  | Some c -> fun () -> c.Counters.store_lookups <- c.Counters.store_lookups + 1

(* ---------------- batched priming ----------------------------------- *)

let base_table_for base g e =
  let key = (Graph.uid g, e) in
  match Hashtbl.find_opt base.btables key with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 1024 in
      Hashtbl.add base.btables key table;
      table

(* Decode a relation row of ids to a term set.  Rows are ascending, so
   the fold inserts in ascending term order; physically shared rows (the
   dense layout hands every source the same array) decode once. *)
let decode_rows st rel table sources =
  let last_row = ref [||] and last_set = ref Term.Set.empty in
  let decode row =
    if row == !last_row then !last_set
    else begin
      let set =
        Array.fold_left
          (fun acc i -> Term.Set.add (Store.term st i) acc)
          Term.Set.empty row
      in
      last_row := row;
      last_set := set;
      set
    end
  in
  List.iter
    (fun (v, id) ->
      match Relation.row rel id with
      | Some row -> Hashtbl.replace table v (decode row)
      | None -> ())
    sources

let prime ?counters base budget g e nodes =
  if worth_memoizing e then begin
    let table = base_table_for base g e in
    let fresh =
      Array.to_list nodes |> List.filter (fun v -> not (Hashtbl.mem table v))
    in
    if fresh <> [] then begin
      let step =
        if Runtime.Budget.is_unlimited budget then None
        else Some (Runtime.Budget.step_hook budget)
      in
      let lookup =
        match counters with None -> None | Some _ -> Some (lookup_hook counters)
      in
      let per_node v =
        (* a node the dictionary has never seen (a stray request
           constant): the per-node map core answers it cheaply and with
           the exact per-node charge *)
        Hashtbl.replace table v
          (Rdf.Path.eval
             ~step:(Runtime.Budget.step_hook budget)
             ~lookup:(lookup_hook counters) g e v)
      in
      match Graph.store g with
      | None -> List.iter per_node fresh
      | Some st ->
          let interned, strays =
            List.partition_map
              (fun v ->
                match Store.id st v with
                | Some id -> Either.Left (v, id)
                | None -> Either.Right v)
              fresh
          in
          if interned <> [] then begin
            let sources =
              Rdf.Bitset.of_list (Store.n_terms st)
                (List.map snd interned)
            in
            let rel = Rdf.Path.eval_batch ?step ?lookup st e ~sources in
            (match counters with
            | Some c ->
                c.Counters.batch_calls <- c.Counters.batch_calls + 1;
                c.Counters.batch_sources <-
                  c.Counters.batch_sources + List.length interned;
                c.Counters.rows_materialized <-
                  c.Counters.rows_materialized + Relation.materialized rel
            | None -> ());
            decode_rows st rel table interned
          end;
          List.iter per_node strays
    end
  end

let eval ?counters t budget g e a =
  let fresh_eval e a =
    Rdf.Path.eval
      ~step:(Runtime.Budget.step_hook budget)
      ~lookup:(lookup_hook counters) g e a
  in
  Runtime.Budget.tick budget;
  if not (worth_memoizing e) then begin
    (match counters with
    | Some c -> c.Counters.path_evals <- c.Counters.path_evals + 1
    | None -> ());
    fresh_eval e a
  end
  else begin
    (match counters with
    | Some c ->
        c.Counters.path_memo_lookups <- c.Counters.path_memo_lookups + 1
    | None -> ());
    let table = table_for t g e in
    let base_cached =
      match Hashtbl.find_opt table a with
      | Some _ as r -> r
      | None -> (
          match t.base with
          | None -> None
          | Some b -> (
              match Hashtbl.find_opt b.btables (Graph.uid g, e) with
              | None -> None
              | Some btable -> Hashtbl.find_opt btable a))
    in
    match base_cached with
    | Some cached ->
        (match counters with
        | Some c -> c.Counters.path_memo_hits <- c.Counters.path_memo_hits + 1
        | None -> ());
        cached
    | None ->
        (match counters with
        | Some c ->
            c.Counters.path_memo_misses <- c.Counters.path_memo_misses + 1;
            c.Counters.path_evals <- c.Counters.path_evals + 1
        | None -> ());
        let result = fresh_eval e a in
        Hashtbl.add table a result;
        result
  end
