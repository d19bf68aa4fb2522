(* Incremental revalidation over stored (verdict, neighborhood, support)
   pairs.  See incremental.mli for the dirtiness argument; the soundness
   of skipping a clean pair rests on the probe-anchor property of
   [Rdf.Path]'s [visit] hook and [Neighborhood.checker]'s [touched]
   hook: a deterministic evaluation that repeats every probe with the
   same answer returns the same result, and a delta that avoids every
   anchor changes no probe's answer. *)

open Rdf
open Shacl

(* The fragment refcount and the dependency index only iterate [nb] and
   [support], so they are flat arrays, not a graph and a set. *)
type entry = {
  verdict : bool;
  nb : Triple.t array;     (* sorted; empty when [verdict] is false *)
  support : Term.t array;  (* sorted probe anchors of the evaluation *)
}

type key = int * Term.t    (* definition index, focus node *)

type t = {
  schema : Schema.t;               (* unfolded once, at [create] *)
  defs : Schema.def array;
  request_shapes : Shape.t array;  (* phi ∧ tau, as Engine.request_of_def *)
  consts : Term.Set.t array;       (* constants of the request shape *)
  reads : Iri.Set.t option array;  (* Validate.target_reads of each target *)
  (* the live graph: the maps view, patched per update *)
  mutable graph : Graph.t;
  (* the last frozen graph built, and the net change since: [frozen]
     patches one into the other on demand *)
  mutable base : Graph.t;
  pending : Delta.Net.t;
  entries : (key, entry) Hashtbl.t;
  (* support term -> the stored pairs it appears in *)
  index : (Term.t, (key, unit) Hashtbl.t) Hashtbl.t;
  (* fragment as a refcount over neighborhood triples, patched in place *)
  refcount : (Triple.t, int) Hashtbl.t;
  mutable fragment : Graph.t;
  (* current target set per def; pairs are stored for it ∪ consts *)
  tsets : Term.Set.t array;
  (* per def: |target set| and the targets whose verdict is false — the
     report's check and violation counts, kept without building it *)
  n_targets : int array;
  n_violations : int array;
  mutable updates : int;
  mutable total_dirty : int;
  mutable total_rechecked : int;
}

(* ---------------- fragment refcounting ------------------------------ *)

let retain_nb t nb =
  Array.iter
    (fun tr ->
      match Hashtbl.find_opt t.refcount tr with
      | Some n -> Hashtbl.replace t.refcount tr (n + 1)
      | None ->
          Hashtbl.replace t.refcount tr 1;
          t.fragment <- Graph.add_triple tr t.fragment)
    nb

let release_nb t nb =
  Array.iter
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
  Array.iter
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
  Array.iter
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
  { verdict;
    nb = Array.of_list (Graph.to_list nb);
    support = Array.of_list (Term.Set.elements !support) }

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

(* Recount def [i]'s violations over its current target set. *)
let recount t i =
  t.n_targets.(i) <- Term.Set.cardinal t.tsets.(i);
  t.n_violations.(i) <-
    Term.Set.fold
      (fun v n -> if (Hashtbl.find t.entries (i, v)).verdict then n else n + 1)
      t.tsets.(i) 0

(* ---------------- construction -------------------------------------- *)

let create ?(jobs = 1) ~schema g =
  let schema = Schema.unfold schema in
  let defs = Array.of_list (Schema.defs schema) in
  let request_shapes =
    Array.map
      (fun (def : Schema.def) -> Shape.and_ [ def.shape; def.target ])
      defs
  in
  let consts = Array.map Shape.constants request_shapes in
  let base = Graph.freeze g in
  let tsets =
    Array.map (fun def -> Validate.target_nodes schema base def) defs
  in
  let csets = Array.mapi (fun i tset -> Term.Set.union tset consts.(i)) tsets in
  (* Every (definition, candidate) pair, definitions in schema order and
     nodes ascending within each. *)
  let pairs =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i cset ->
              Array.of_list
                (List.map (fun v -> i, v) (Term.Set.elements cset)))
            csets))
  in
  let n = Array.length pairs in
  let t =
    { schema;
      defs;
      request_shapes;
      consts;
      reads =
        Array.map
          (fun (def : Schema.def) -> Validate.target_reads def.target)
          defs;
      graph = Graph.thaw base;
      base;
      pending = Delta.Net.create ();
      entries = Hashtbl.create 256;
      index = Hashtbl.create 256;
      refcount = Hashtbl.create 256;
      fragment = Graph.empty;
      tsets;
      n_targets = Array.make (Array.length defs) 0;
      n_violations = Array.make (Array.length defs) 0;
      updates = 0;
      total_dirty = 0;
      total_rechecked = 0 }
  in
  (* The pairs are independent, so workers evaluate them into per-pair
     slots, in blocks of up to 64 pairs and at least four blocks per
     worker. *)
  let jobs = max 1 jobs in
  let slots = Array.make n { verdict = false; nb = [||]; support = [||] } in
  let block = max 1 (min 64 (n / (4 * jobs))) in
  Workers.iter ~jobs
    (fun lo ->
      for k = lo to min n (lo + block) - 1 do
        let i, v = pairs.(k) in
        slots.(k) <- eval_pair t i v
      done)
    (List.init ((n + block - 1) / block) (fun b -> b * block));
  (* The slots then feed three independent structures, each filled by
     one task in pair order, as [set_entry] over the pairs would — so
     the state, hash table layout included, is the same at every
     [jobs].  The index and the entries share the key tuples. *)
  Workers.iter ~jobs
    (function
      | `Index ->
          Array.iteri (fun k key -> index_add t key slots.(k).support) pairs
      | `Fragment ->
          Array.iter (fun e -> if e.verdict then retain_nb t e.nb) slots
      | `Entries ->
          Array.iteri (fun k key -> Hashtbl.replace t.entries key slots.(k))
            pairs)
    [ `Index; `Fragment; `Entries ];
  Array.iteri (fun i _ -> recount t i) defs;
  t

let graph t = t.graph
let fragment t = t.fragment

(* The store is built only when asked for: one [Store.patch] of the net
   change since the last build.  The live view then shares the rebuilt
   graph's maps, so one copy of them stays live. *)
let frozen t =
  if not (Delta.Net.is_empty t.pending) then begin
    t.base <- Graph.freeze (Delta.apply (Delta.Net.delta t.pending) t.base);
    Delta.Net.clear t.pending;
    t.graph <- Graph.thaw t.base
  end;
  t.base

(* ---------------- updates ------------------------------------------- *)

type update_stats = {
  removed : int;
  added : int;
  dirty : int;
  rechecked : int;
}

(* The nodes entering and leaving def [i]'s target set under a delta
   whose changed triples are [changed] (already applied to [t.graph]).
   A form that reads none of the delta's predicates keeps its set.
   Otherwise membership of a fast form at [v] reads only triples at [v]
   with a predicate the form reads — for a class target, given
   [rdfs:subClassOf] unchanged — so re-testing those triples' endpoints
   is exact.  Class targets under a [subClassOf] delta and forms
   [fast_targets] does not answer are re-derived. *)
let moved_targets t i (def : Schema.def) ~changed ~preds =
  let old = t.tsets.(i) in
  match t.reads.(i) with
  | Some reads when Iri.Set.disjoint reads preds -> [], []
  | Some reads when not (Iri.Set.mem Vocab.Rdfs.sub_class_of
                           (Iri.Set.inter reads preds)) ->
      let endpoints =
        List.fold_left
          (fun acc tr ->
            if Iri.Set.mem (Triple.predicate tr) reads then
              Term.Set.add (Triple.subject tr)
                (Term.Set.add (Triple.object_ tr) acc)
            else acc)
          Term.Set.empty changed
      in
      Term.Set.fold
        (fun v (entering, leaving) ->
          match
            Conformance.conforms t.schema t.graph v def.target,
            Term.Set.mem v old
          with
          | true, false -> (v :: entering, leaving)
          | false, true -> (entering, v :: leaving)
          | _ -> (entering, leaving))
        endpoints ([], [])
  | _ ->
      let tset = Validate.target_nodes t.schema t.graph def in
      ( Term.Set.elements (Term.Set.diff tset old),
        Term.Set.elements (Term.Set.diff old tset) )

let apply t delta =
  (* Normalize away no-ops so the anchor set covers real changes only. *)
  let delta = Delta.effective delta t.graph in
  let changed = delta.Delta.removes @ delta.Delta.adds in
  let anchors = Delta.terms delta in
  let preds =
    List.fold_left
      (fun acc tr -> Iri.Set.add (Triple.predicate tr) acc)
      Iri.Set.empty changed
  in
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
  let dirty_of = Array.make (Array.length t.defs) [] in
  Hashtbl.iter (fun (i, v) () -> dirty_of.(i) <- v :: dirty_of.(i)) dirty;
  (* The maps view takes the change in O(k log n); the store waits for
     [frozen]. *)
  t.graph <- Delta.apply delta t.graph;
  Delta.Net.note t.pending delta;
  let rechecked = ref 0 in
  let eval i v =
    incr rechecked;
    set_entry t i v (eval_pair t i v)
  in
  Array.iteri
    (fun i def ->
      let entering, leaving = moved_targets t i def ~changed ~preds in
      if entering <> [] || leaving <> [] || dirty_of.(i) <> [] then begin
        let old = t.tsets.(i) in
        let tset =
          List.fold_left (fun s v -> Term.Set.add v s)
            (List.fold_left (fun s v -> Term.Set.remove v s) old leaving)
            entering
        in
        let stored v = Term.Set.mem v tset || Term.Set.mem v t.consts.(i) in
        (* The verdict counts move by the nodes whose membership or
           verdict can have changed: take their old share out, move the
           pairs, put their new share back. *)
        let moved =
          List.fold_left (fun s v -> Term.Set.add v s)
            (Term.Set.of_list (entering @ leaving))
            dirty_of.(i)
        in
        let violations tset =
          Term.Set.fold
            (fun v n ->
              if Term.Set.mem v tset
                 && not (Hashtbl.find t.entries (i, v)).verdict
              then n + 1
              else n)
            moved 0
        in
        let before = violations old in
        List.iter (fun v -> if not (stored v) then drop_entry t i v) leaving;
        List.iter
          (fun v ->
            if stored v then begin
              drop_entry t i v;
              eval i v
            end)
          dirty_of.(i);
        List.iter
          (fun v -> if not (Hashtbl.mem t.entries (i, v)) then eval i v)
          entering;
        t.tsets.(i) <- tset;
        t.n_targets.(i) <-
          t.n_targets.(i) + List.length entering - List.length leaving;
        t.n_violations.(i) <- t.n_violations.(i) + violations tset - before
      end)
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

let checks t = Array.fold_left ( + ) 0 t.n_targets
let violations t = Array.fold_left ( + ) 0 t.n_violations
let conforms t = violations t = 0

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
