(* Incremental revalidation over stored (verdict, neighborhood, support)
   pairs.  See incremental.mli for the dirtiness argument; the soundness
   of skipping a clean pair rests on the probe-anchor property of
   [Rdf.Path]'s [visit] hook and [Neighborhood.checker]'s [touched]
   hook: a deterministic evaluation that repeats every probe with the
   same answer returns the same result, and a delta that avoids every
   anchor changes no probe's answer. *)

open Rdf
open Shacl

type entry = {
  verdict : bool;
  nb : Graph.t;            (* empty when [verdict] is false *)
  support : Term.Set.t;    (* probe anchors of the evaluation *)
}

type key = int * Term.t    (* definition index, focus node *)

type t = {
  schema : Schema.t;
  defs : Schema.def array;
  request_shapes : Shape.t array;  (* phi ∧ tau, as Engine.request_of_def *)
  consts : Term.Set.t array;       (* constants of the request shape *)
  mutable graph : Graph.t;
  entries : (key, entry) Hashtbl.t;
  (* support term -> the stored pairs it appears in *)
  index : (Term.t, (key, unit) Hashtbl.t) Hashtbl.t;
  (* fragment as a refcount over neighborhood triples, patched in place *)
  refcount : (Triple.t, int) Hashtbl.t;
  mutable fragment : Graph.t;
  mutable tsets : Term.Set.t array;  (* current target set per def *)
  mutable csets : Term.Set.t array;  (* targets ∪ constants per def *)
  mutable updates : int;
  mutable total_dirty : int;
  mutable total_rechecked : int;
}

(* ---------------- fragment refcounting ------------------------------ *)

let retain_nb t nb =
  Graph.iter
    (fun tr ->
      match Hashtbl.find_opt t.refcount tr with
      | Some n -> Hashtbl.replace t.refcount tr (n + 1)
      | None ->
          Hashtbl.replace t.refcount tr 1;
          t.fragment <- Graph.add_triple tr t.fragment)
    nb

let release_nb t nb =
  Graph.iter
    (fun tr ->
      match Hashtbl.find_opt t.refcount tr with
      | Some 1 ->
          Hashtbl.remove t.refcount tr;
          t.fragment <- Graph.remove tr t.fragment
      | Some n -> Hashtbl.replace t.refcount tr (n - 1)
      | None -> assert false)
    nb

(* ---------------- dependency index ---------------------------------- *)

let index_add t key support =
  Term.Set.iter
    (fun term ->
      let bucket =
        match Hashtbl.find_opt t.index term with
        | Some b -> b
        | None ->
            let b = Hashtbl.create 4 in
            Hashtbl.add t.index term b;
            b
      in
      Hashtbl.replace bucket key ())
    support

let index_remove t key support =
  Term.Set.iter
    (fun term ->
      match Hashtbl.find_opt t.index term with
      | None -> ()
      | Some bucket ->
          Hashtbl.remove bucket key;
          if Hashtbl.length bucket = 0 then Hashtbl.remove t.index term)
    support

(* ---------------- pair lifecycle ------------------------------------ *)

(* One fresh checker instance per pair: the [touched] anchors must be
   attributed to this (def, node) alone, which a shared memo table
   would break (a hit computed for another focus hides its probes). *)
let eval_pair t i v =
  let support = ref Term.Set.empty in
  let touched x = support := Term.Set.add x !support in
  let check =
    Neighborhood.checker ~schema:t.schema ~touched t.graph
      t.request_shapes.(i)
  in
  let verdict, nb = check v in
  { verdict; nb; support = !support }

let set_entry t i v entry =
  Hashtbl.replace t.entries (i, v) entry;
  index_add t (i, v) entry.support;
  if entry.verdict then retain_nb t entry.nb

let drop_entry t i v =
  match Hashtbl.find_opt t.entries (i, v) with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.entries (i, v);
      index_remove t (i, v) entry.support;
      if entry.verdict then release_nb t entry.nb

(* ---------------- construction -------------------------------------- *)

let create ~schema g =
  let defs = Array.of_list (Schema.defs schema) in
  let request_shapes =
    Array.map
      (fun (def : Schema.def) -> Shape.and_ [ def.shape; def.target ])
      defs
  in
  let consts = Array.map Shape.constants request_shapes in
  let t =
    { schema;
      defs;
      request_shapes;
      consts;
      graph = Graph.freeze g;
      entries = Hashtbl.create 256;
      index = Hashtbl.create 256;
      refcount = Hashtbl.create 256;
      fragment = Graph.empty;
      tsets = Array.make (Array.length defs) Term.Set.empty;
      csets = Array.make (Array.length defs) Term.Set.empty;
      updates = 0;
      total_dirty = 0;
      total_rechecked = 0 }
  in
  Array.iteri
    (fun i def ->
      let tset = Validate.target_nodes schema t.graph def in
      let cset = Term.Set.union tset consts.(i) in
      t.tsets.(i) <- tset;
      t.csets.(i) <- cset;
      Term.Set.iter (fun v -> set_entry t i v (eval_pair t i v)) cset)
    defs;
  t

let graph t = t.graph
let fragment t = t.fragment

(* ---------------- updates ------------------------------------------- *)

type update_stats = {
  removed : int;
  added : int;
  dirty : int;
  rechecked : int;
}

let apply t delta =
  (* Normalize away no-ops so the anchor set covers real changes only. *)
  let delta = Delta.effective delta t.graph in
  let anchors = Delta.terms delta in
  (* Collect the dirty pairs from the pre-delta index before any entry
     moves: the stored supports describe the evaluations made against
     the old graph, which is exactly what the delta can invalidate. *)
  let dirty : (key, unit) Hashtbl.t = Hashtbl.create 64 in
  Term.Set.iter
    (fun a ->
      match Hashtbl.find_opt t.index a with
      | Some bucket -> Hashtbl.iter (fun key () -> Hashtbl.replace dirty key ()) bucket
      | None -> ())
    anchors;
  t.graph <- Graph.freeze (Delta.apply delta t.graph);
  let rechecked = ref 0 in
  Array.iteri
    (fun i def ->
      (* Target sets are cheap relative to conformance checks and are
         recomputed exactly — membership has no support set of its
         own. *)
      let tset = Validate.target_nodes t.schema t.graph def in
      let cset = Term.Set.union tset t.consts.(i) in
      let old = t.csets.(i) in
      Term.Set.iter
        (fun v -> if not (Term.Set.mem v cset) then drop_entry t i v)
        old;
      Term.Set.iter
        (fun v ->
          let entered = not (Term.Set.mem v old) in
          if entered || Hashtbl.mem dirty (i, v) then begin
            if not entered then drop_entry t i v;
            incr rechecked;
            set_entry t i v (eval_pair t i v)
          end)
        cset;
      t.tsets.(i) <- tset;
      t.csets.(i) <- cset)
    t.defs;
  let stats =
    { removed = List.length delta.Delta.removes;
      added = List.length delta.Delta.adds;
      dirty = Hashtbl.length dirty;
      rechecked = !rechecked }
  in
  t.updates <- t.updates + 1;
  t.total_dirty <- t.total_dirty + stats.dirty;
  t.total_rechecked <- t.total_rechecked + stats.rechecked;
  stats

(* ---------------- views --------------------------------------------- *)

(* Mirrors [Engine.validate]'s assembly exactly: definitions in schema
   order, and within each an ascending iteration pushing to the front —
   descending node order.  Verdicts of phi ∧ tau coincide with verdicts
   of phi on target nodes (a target satisfies tau by construction). *)
let report t =
  let results =
    List.concat
      (List.mapi
         (fun i (def : Schema.def) ->
           let acc = ref [] in
           Term.Set.iter
             (fun v ->
               let entry = Hashtbl.find t.entries (i, v) in
               acc :=
                 { Validate.focus = v;
                   shape_name = def.name;
                   conforms = entry.verdict }
                 :: !acc)
             t.tsets.(i);
           !acc)
         (Array.to_list t.defs))
  in
  { Validate.conforms =
      List.for_all (fun (r : Validate.result) -> r.conforms) results;
    results }

type stats = {
  pairs : int;
  fragment_triples : int;
  updates : int;
  total_dirty : int;
  total_rechecked : int;
}

let stats t =
  { pairs = Hashtbl.length t.entries;
    fragment_triples = Graph.cardinal t.fragment;
    updates = t.updates;
    total_dirty = t.total_dirty;
    total_rechecked = t.total_rechecked }
