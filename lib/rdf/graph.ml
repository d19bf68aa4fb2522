(* Three persistent indexes over the same triple set:
     spo : subject -> predicate -> object set
     pos : predicate -> object -> subject set
     osp : object -> subject -> predicate set
   [size] caches the triple count so [cardinal] is O(1).

   The persistent maps are the builder representation: purely
   functional, sharable, cheap to update.  [freeze] packs the same
   triple set into an interned, int-packed [Store.t] (term dictionary +
   sorted-array SPO/POS/OSP indexes) that answers the hot read paths
   with binary searches and no per-lookup allocation.  [add]/[remove]
   drop the store and [patch] patches it, so a store never disagrees
   with the maps beside it.

   A view is a set of rows of a store: all of them ([of_store], what
   the parser returns) or some of them ([of_rows], what [Engine.run]
   returns).  Counting, iteration, membership and the Turtle writer
   read the rows; every other reader builds the maps once ([maps]) and
   keeps them in the view — a whole store by one walk over each of its
   sorted orders ([maps_of_store]).  The cache is an [Atomic], not a
   [Lazy]: two domains forcing one [Lazy] at once raise, while two
   domains building the maps at once both publish equal maps. *)

type maps = {
  spo : Term.Set.t Iri.Map.t Term.Map.t;
  pos : Term.Set.t Term.Map.t Iri.Map.t;
  osp : Iri.Set.t Term.Map.t Term.Map.t;
}

(* [rows = None]: every row of [src] *)
type view = { src : Store.t; rows : int array option; built : maps option Atomic.t }
type repr = Maps of maps | View of view

type t = {
  repr : repr;
  size : int;
  store : Store.t option;  (* of this graph's own triples *)
}

let no_maps = { spo = Term.Map.empty; pos = Iri.Map.empty; osp = Term.Map.empty }
let empty = { repr = Maps no_maps; size = 0; store = None }

let is_empty g = g.size = 0
let cardinal g = g.size
let store g = g.store
let frozen g = g.store <> None

let row_view g =
  match g.repr with
  | View { src; rows = Some rows; _ } -> Some (src, rows)
  | View { rows = None; _ } | Maps _ -> None

let of_rows src rows =
  if Array.length rows = 0 then empty
  else
    { repr = View { src; rows = Some rows; built = Atomic.make None };
      size = Array.length rows;
      store = None }

let of_store st =
  { repr = View { src = st; rows = None; built = Atomic.make None };
    size = Store.n_triples st;
    store = Some st }

(* [rows] ascending: binary search *)
let view_mem v s p o =
  match Store.id v.src s, Store.pred_id v.src p, Store.id v.src o with
  | Some s, Some p, Some o -> (
      match Store.triple_row v.src s p o, v.rows with
      | None, _ -> false
      | Some _, None -> true
      | Some r, Some rows ->
          let rec go lo hi =
            lo < hi
            &&
            let mid = (lo + hi) / 2 in
            let x = rows.(mid) in
            x = r || if x < r then go (mid + 1) hi else go lo mid
          in
          go 0 (Array.length rows))
  | _ -> false

(* the triple of a view's [k]th row *)
let view_triple v k =
  Store.row_triple v.src (match v.rows with None -> k | Some rows -> rows.(k))

let fold f g acc =
  match g.repr with
  | View v ->
      let acc = ref acc in
      for k = 0 to g.size - 1 do acc := f (view_triple v k) !acc done;
      !acc
  | Maps m ->
      Term.Map.fold
        (fun s by_p acc ->
          Iri.Map.fold
            (fun p objs acc ->
              Term.Set.fold (fun o acc -> f (Triple.make s p o) acc) objs acc)
            by_p acc)
        m.spo acc

let iter f g = fold (fun t () -> f t) g ()

let maps_add s p o m =
  let spo =
    let by_p = Option.value (Term.Map.find_opt s m.spo) ~default:Iri.Map.empty in
    let objs = Option.value (Iri.Map.find_opt p by_p) ~default:Term.Set.empty in
    Term.Map.add s (Iri.Map.add p (Term.Set.add o objs) by_p) m.spo
  in
  let pos =
    let by_o = Option.value (Iri.Map.find_opt p m.pos) ~default:Term.Map.empty in
    let subs = Option.value (Term.Map.find_opt o by_o) ~default:Term.Set.empty in
    Iri.Map.add p (Term.Map.add o (Term.Set.add s subs) by_o) m.pos
  in
  let osp =
    let by_s = Option.value (Term.Map.find_opt o m.osp) ~default:Term.Map.empty in
    let preds = Option.value (Term.Map.find_opt s by_s) ~default:Iri.Set.empty in
    Term.Map.add o (Term.Map.add s (Iri.Set.add p preds) by_s) m.osp
  in
  { spo; pos; osp }

(* The three maps of a store's triple set, each built by one walk over
   the store's matching sorted order: a run of rows sharing a key
   becomes one map entry, so keys arrive ascending and every term is the
   dictionary's shared copy. *)
let maps_of_store st =
  let term = Store.term st in
  let iri i =
    match term i with Term.Iri p -> p | _ -> invalid_arg "Graph.maps_of_store"
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
  { spo; pos; osp }

let maps g =
  match g.repr with
  | Maps m -> m
  | View v -> (
      match Atomic.get v.built with
      | Some m -> m
      | None ->
          let m =
            match v.rows with
            | None -> maps_of_store v.src
            | Some _ ->
                fold
                  (fun t m ->
                    maps_add (Triple.subject t) (Triple.predicate t)
                      (Triple.object_ t) m)
                  g no_maps
          in
          Atomic.set v.built (Some m);
          m)

let thaw g =
  if g.store = None then g
  else { repr = Maps (maps g); size = g.size; store = None }

let mem_spo s p o g =
  match g.store, g.repr with
  | Some st, _ -> Store.mem st s p o
  | None, View v -> view_mem v s p o
  | None, Maps m -> (
      match Term.Map.find_opt s m.spo with
      | None -> false
      | Some by_p -> (
          match Iri.Map.find_opt p by_p with
          | None -> false
          | Some objs -> Term.Set.mem o objs))

let mem t g = mem_spo (Triple.subject t) (Triple.predicate t) (Triple.object_ t) g

let add s p o g =
  if Term.is_literal s then invalid_arg "Graph.add: literal in subject position"
  else if mem_spo s p o g then g
  else { repr = Maps (maps_add s p o (maps g)); size = g.size + 1; store = None }

let add_triple t g = add (Triple.subject t) (Triple.predicate t) (Triple.object_ t) g

let remove t g =
  let s = Triple.subject t and p = Triple.predicate t and o = Triple.object_ t in
  if not (mem_spo s p o g) then g
  else
    let m = maps g in
    let spo =
      let by_p = Term.Map.find s m.spo in
      let objs = Term.Set.remove o (Iri.Map.find p by_p) in
      let by_p =
        if Term.Set.is_empty objs then Iri.Map.remove p by_p
        else Iri.Map.add p objs by_p
      in
      if Iri.Map.is_empty by_p then Term.Map.remove s m.spo
      else Term.Map.add s by_p m.spo
    in
    let pos =
      let by_o = Iri.Map.find p m.pos in
      let subs = Term.Set.remove s (Term.Map.find o by_o) in
      let by_o =
        if Term.Set.is_empty subs then Term.Map.remove o by_o
        else Term.Map.add o subs by_o
      in
      if Term.Map.is_empty by_o then Iri.Map.remove p m.pos
      else Iri.Map.add p by_o m.pos
    in
    let osp =
      let by_s = Term.Map.find o m.osp in
      let preds = Iri.Set.remove p (Term.Map.find s by_s) in
      let by_s =
        if Iri.Set.is_empty preds then Term.Map.remove s by_s
        else Term.Map.add s preds by_s
      in
      if Term.Map.is_empty by_s then Term.Map.remove o m.osp
      else Term.Map.add o by_s m.osp
    in
    { repr = Maps { spo; pos; osp }; size = g.size - 1; store = None }

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

let to_list g =
  match g.repr with
  | View v ->
      let l = ref [] in
      for k = g.size - 1 downto 0 do l := view_triple v k :: !l done;
      !l
  | Maps _ -> List.rev (fold (fun t acc -> t :: acc) g [])

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
  match Term.Map.find_opt s (maps g).spo with
  | None -> Term.Set.empty
  | Some by_p ->
      Option.value (Iri.Map.find_opt p by_p) ~default:Term.Set.empty

let subjects g p o =
  match Iri.Map.find_opt p (maps g).pos with
  | None -> Term.Set.empty
  | Some by_o ->
      Option.value (Term.Map.find_opt o by_o) ~default:Term.Set.empty

let predicates_between g s o =
  match Term.Map.find_opt o (maps g).osp with
  | None -> Iri.Set.empty
  | Some by_s -> Option.value (Term.Map.find_opt s by_s) ~default:Iri.Set.empty

let subject_triples g s =
  match g.store with
  | Some st -> Store.subject_triples st s
  | None -> (
      match Term.Map.find_opt s (maps g).spo with
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
      match Term.Map.find_opt o (maps g).osp with
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
      match Iri.Map.find_opt p (maps g).pos with
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
      match Term.Map.find_opt s (maps g).spo with
      | None -> Iri.Set.empty
      | Some by_p ->
          Iri.Map.fold (fun p _ acc -> Iri.Set.add p acc) by_p Iri.Set.empty)

let nodes g =
  match g.store with
  | Some st -> Store.nodes st
  | None ->
      let m = maps g in
      let subs =
        Term.Map.fold (fun s _ acc -> Term.Set.add s acc) m.spo Term.Set.empty
      in
      Term.Map.fold (fun o _ acc -> Term.Set.add o acc) m.osp subs

let subjects_all g =
  Term.Map.fold (fun s _ acc -> Term.Set.add s acc) (maps g).spo Term.Set.empty

let predicates_all g =
  Iri.Map.fold (fun p _ acc -> Iri.Set.add p acc) (maps g).pos Iri.Set.empty

let to_seq g = List.to_seq (to_list g)

let freeze g =
  if g.store <> None || g.size = 0 then g
  else
    match g.repr with
    | View v when g.size = Store.n_triples v.src ->
        (* every row of [src]: its dictionary holds exactly these
           triples' terms, so it is the store [of_triples] would build *)
        { g with store = Some v.src }
    | View _ | Maps _ ->
        let dummy =
          Triple.make (Term.Blank "") (Iri.of_string "urn:x-dummy")
            (Term.Blank "")
        in
        let arr = Array.make g.size dummy in
        let k = ref 0 in
        iter (fun t -> arr.(!k) <- t; incr k) g;
        { g with store = Some (Store.of_triples arr) }

let pp ppf g =
  let first = ref true in
  iter
    (fun t ->
      if !first then first := false else Format.pp_print_newline ppf ();
      Triple.pp ppf t)
    g
