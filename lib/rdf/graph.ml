(* Three persistent indexes over the same triple set:
     spo : subject -> predicate -> object set
     pos : predicate -> object -> subject set
     osp : object -> subject -> predicate set
   [size] caches the triple count so [cardinal] is O(1).

   The persistent maps are the builder representation: purely
   functional, sharable, cheap to update.  [freeze] packs the same
   triple set into an interned, int-packed [Store.t] (term dictionary +
   sorted-array SPO/POS/OSP indexes) that answers the hot read paths
   with binary searches and no per-lookup allocation.  [of_store] goes
   the other way — the parser builds the store first and the maps from
   its sorted orders.  [add]/[remove] drop the store and [patch] patches
   it, so a store never disagrees with the maps beside it. *)

type t = {
  spo : Term.Set.t Iri.Map.t Term.Map.t;
  pos : Term.Set.t Term.Map.t Iri.Map.t;
  osp : Iri.Set.t Term.Map.t Term.Map.t;
  size : int;
  store : Store.t option;
}

let empty =
  { spo = Term.Map.empty;
    pos = Iri.Map.empty;
    osp = Term.Map.empty;
    size = 0;
    store = None }

let is_empty g = g.size = 0
let cardinal g = g.size
let store g = g.store
let frozen g = g.store <> None
let thaw g = if g.store = None then g else { g with store = None }

let mem_spo s p o g =
  match g.store with
  | Some st -> Store.mem st s p o
  | None -> (
      match Term.Map.find_opt s g.spo with
      | None -> false
      | Some by_p -> (
          match Iri.Map.find_opt p by_p with
          | None -> false
          | Some objs -> Term.Set.mem o objs))

let mem t g = mem_spo (Triple.subject t) (Triple.predicate t) (Triple.object_ t) g

let add s p o g =
  if Term.is_literal s then invalid_arg "Graph.add: literal in subject position"
  else if mem_spo s p o g then g
  else
    let spo =
      let by_p =
        Option.value (Term.Map.find_opt s g.spo) ~default:Iri.Map.empty
      in
      let objs = Option.value (Iri.Map.find_opt p by_p) ~default:Term.Set.empty in
      Term.Map.add s (Iri.Map.add p (Term.Set.add o objs) by_p) g.spo
    in
    let pos =
      let by_o =
        Option.value (Iri.Map.find_opt p g.pos) ~default:Term.Map.empty
      in
      let subs = Option.value (Term.Map.find_opt o by_o) ~default:Term.Set.empty in
      Iri.Map.add p (Term.Map.add o (Term.Set.add s subs) by_o) g.pos
    in
    let osp =
      let by_s =
        Option.value (Term.Map.find_opt o g.osp) ~default:Term.Map.empty
      in
      let preds = Option.value (Term.Map.find_opt s by_s) ~default:Iri.Set.empty in
      Term.Map.add o (Term.Map.add s (Iri.Set.add p preds) by_s) g.osp
    in
    { spo; pos; osp; size = g.size + 1; store = None }

let add_triple t g = add (Triple.subject t) (Triple.predicate t) (Triple.object_ t) g

let remove t g =
  let s = Triple.subject t and p = Triple.predicate t and o = Triple.object_ t in
  if not (mem_spo s p o g) then g
  else
    let spo =
      let by_p = Term.Map.find s g.spo in
      let objs = Term.Set.remove o (Iri.Map.find p by_p) in
      let by_p =
        if Term.Set.is_empty objs then Iri.Map.remove p by_p
        else Iri.Map.add p objs by_p
      in
      if Iri.Map.is_empty by_p then Term.Map.remove s g.spo
      else Term.Map.add s by_p g.spo
    in
    let pos =
      let by_o = Iri.Map.find p g.pos in
      let subs = Term.Set.remove s (Term.Map.find o by_o) in
      let by_o =
        if Term.Set.is_empty subs then Term.Map.remove o by_o
        else Term.Map.add o subs by_o
      in
      if Term.Map.is_empty by_o then Iri.Map.remove p g.pos
      else Iri.Map.add p by_o g.pos
    in
    let osp =
      let by_s = Term.Map.find o g.osp in
      let preds = Iri.Set.remove p (Term.Map.find s by_s) in
      let by_s =
        if Iri.Set.is_empty preds then Term.Map.remove s by_s
        else Term.Map.add s preds by_s
      in
      if Term.Map.is_empty by_s then Term.Map.remove o g.osp
      else Term.Map.add o by_s g.osp
    in
    { spo; pos; osp; size = g.size - 1; store = None }

(* A frozen graph keeps a store: the old one patched for the change
   (see [Store.patch]), a linear pass with no sort instead of a
   re-freeze.  An emptied graph keeps its (empty) store, so a stream of
   updates that drains and refills it stays frozen throughout. *)
let patch ~removes ~adds g =
  let g' = List.fold_left (fun g tr -> remove tr g) g removes in
  let g' = List.fold_left (fun g tr -> add_triple tr g) g' adds in
  match g.store with
  | Some st when g' != g ->
      { g' with store = Some (Store.patch st ~removes ~adds) }
  | _ -> g'

let fold f g acc =
  Term.Map.fold
    (fun s by_p acc ->
      Iri.Map.fold
        (fun p objs acc ->
          Term.Set.fold (fun o acc -> f (Triple.make s p o) acc) objs acc)
        by_p acc)
    g.spo acc

let iter f g = fold (fun t () -> f t) g ()
let to_list g = List.rev (fold (fun t acc -> t :: acc) g [])

exception Found

let exists pred g =
  try
    iter (fun t -> if pred t then raise Found) g;
    false
  with Found -> true

let for_all pred g = not (exists (fun t -> not (pred t)) g)
let filter pred g = fold (fun t acc -> if pred t then add_triple t acc else acc) g empty
let of_list ts = List.fold_left (fun g t -> add_triple t g) empty ts

let union a b =
  let small, big = if cardinal a <= cardinal b then a, b else b, a in
  fold add_triple small big

let inter a b =
  let small, big = if cardinal a <= cardinal b then a, b else b, a in
  fold (fun t acc -> if mem t big then add_triple t acc else acc) small empty

let diff a b = fold (fun t acc -> if mem t b then acc else add_triple t acc) a empty
let subset a b = cardinal a <= cardinal b && for_all (fun t -> mem t b) a
let equal a b = cardinal a = cardinal b && subset a b

let objects g s p =
  match Term.Map.find_opt s g.spo with
  | None -> Term.Set.empty
  | Some by_p ->
      Option.value (Iri.Map.find_opt p by_p) ~default:Term.Set.empty

let subjects g p o =
  match Iri.Map.find_opt p g.pos with
  | None -> Term.Set.empty
  | Some by_o ->
      Option.value (Term.Map.find_opt o by_o) ~default:Term.Set.empty

let predicates_between g s o =
  match Term.Map.find_opt o g.osp with
  | None -> Iri.Set.empty
  | Some by_s -> Option.value (Term.Map.find_opt s by_s) ~default:Iri.Set.empty

let subject_triples g s =
  match g.store with
  | Some st -> Store.subject_triples st s
  | None -> (
      match Term.Map.find_opt s g.spo with
      | None -> []
      | Some by_p ->
          Iri.Map.fold
            (fun p objs acc ->
              Term.Set.fold (fun o acc -> Triple.make s p o :: acc) objs acc)
            by_p []
          |> List.rev)

let object_triples g o =
  match g.store with
  | Some st -> Store.object_triples st o
  | None -> (
      match Term.Map.find_opt o g.osp with
      | None -> []
      | Some by_s ->
          Term.Map.fold
            (fun s preds acc ->
              Iri.Set.fold (fun p acc -> Triple.make s p o :: acc) preds acc)
            by_s []
          |> List.rev)

let predicate_triples g p =
  match g.store with
  | Some st -> Store.predicate_triples st p
  | None -> (
      match Iri.Map.find_opt p g.pos with
      | None -> []
      | Some by_o ->
          Term.Map.fold
            (fun o subs acc ->
              Term.Set.fold (fun s acc -> Triple.make s p o :: acc) subs acc)
            by_o []
          |> List.rev)

let out_predicates g s =
  match g.store with
  | Some st -> Store.out_predicates st s
  | None -> (
      match Term.Map.find_opt s g.spo with
      | None -> Iri.Set.empty
      | Some by_p ->
          Iri.Map.fold (fun p _ acc -> Iri.Set.add p acc) by_p Iri.Set.empty)

let nodes g =
  match g.store with
  | Some st -> Store.nodes st
  | None ->
      let subs =
        Term.Map.fold (fun s _ acc -> Term.Set.add s acc) g.spo Term.Set.empty
      in
      Term.Map.fold (fun o _ acc -> Term.Set.add o acc) g.osp subs

let subjects_all g =
  Term.Map.fold (fun s _ acc -> Term.Set.add s acc) g.spo Term.Set.empty

let predicates_all g =
  Iri.Map.fold (fun p _ acc -> Iri.Set.add p acc) g.pos Iri.Set.empty

let to_seq g = List.to_seq (to_list g)

let freeze g =
  if g.store <> None then g
  else if g.size = 0 then g
  else begin
    let dummy =
      Triple.make (Term.Blank "") (Iri.of_string "urn:x-dummy") (Term.Blank "")
    in
    let arr = Array.make g.size dummy in
    let k = ref 0 in
    iter (fun t -> arr.(!k) <- t; incr k) g;
    { g with store = Some (Store.of_triples arr) }
  end

(* The three maps of a store's triple set, each built by one walk over
   the store's matching sorted order: a run of rows sharing a key
   becomes one map entry, so keys arrive ascending and every term is the
   dictionary's shared copy. *)
let of_store st =
  let term = Store.term st in
  let iri i =
    match term i with Term.Iri p -> p | _ -> invalid_arg "Graph.of_store"
  in
  (* fold [f k lo hi] over the maximal runs [lo, hi) of equal [key]
     within the rows [lo, hi) *)
  let rec runs key lo hi f acc =
    if lo >= hi then acc
    else begin
      let k = key lo in
      let j = ref (lo + 1) in
      while !j < hi && key !j = k do incr j done;
      runs key !j hi f (f k lo !j acc)
    end
  in
  let elements col lo hi =
    let l = ref [] in
    for i = hi - 1 downto lo do l := col i :: !l done;
    !l
  in
  let terms col lo hi =
    Term.Set.of_list (elements (fun i -> term (col i)) lo hi)
  and iris col lo hi =
    Iri.Set.of_list (elements (fun i -> iri (col i)) lo hi)
  in
  let n = Store.n_triples st in
  let spo =
    runs (Store.spo_subj st) 0 n
      (fun s lo hi ->
        Term.Map.add (term s)
          (runs (Store.spo_pred st) lo hi
             (fun p lo hi ->
               Iri.Map.add (iri p) (terms (Store.spo_obj st) lo hi))
             Iri.Map.empty))
      Term.Map.empty
  and pos =
    runs (Store.pos_pred st) 0 n
      (fun p lo hi ->
        Iri.Map.add (iri p)
          (runs (Store.pos_obj st) lo hi
             (fun o lo hi ->
               Term.Map.add (term o) (terms (Store.pos_subj st) lo hi))
             Term.Map.empty))
      Iri.Map.empty
  and osp =
    runs (Store.osp_obj st) 0 n
      (fun o lo hi ->
        Term.Map.add (term o)
          (runs (Store.osp_subj st) lo hi
             (fun s lo hi ->
               Term.Map.add (term s) (iris (Store.osp_pred st) lo hi))
             Term.Map.empty))
      Term.Map.empty
  in
  { spo; pos; osp; size = n; store = Some st }

let pp ppf g =
  let first = ref true in
  iter
    (fun t ->
      if !first then first := false else Format.pp_print_newline ppf ();
      Triple.pp ppf t)
    g
