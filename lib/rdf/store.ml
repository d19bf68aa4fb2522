(* Frozen, interned, int-packed triple store.

   All terms of the graph are interned into a Dict (dense ids assigned
   in Term.compare order), and the triple set is packed into three
   sorted int-column indexes:

     spo_*  rows sorted by (subject, predicate, object)
     pos_*  rows sorted by (predicate, object, subject)
     osp_*  rows sorted by (object, subject, predicate)

   Each ordering also keeps per-id row offsets for its leading column
   (n_terms + 1 ints, built by one counting pass): the rows of subject
   [s] in SPO are [spo_off.(s), spo_off.(s + 1)), and likewise for a
   predicate in POS and an object in OSP.  A one-id range is two array
   reads; a two-id range ([s] via [p], [o] via [p], [o] from [s]) is a
   binary search inside the leading id's rows only; membership is a
   binary search inside a (subject, predicate) range.  No lookup
   allocates except the [_range] pairs themselves.  The store is
   immutable after construction and safe to share across domains.

   A triple's identity is its row index in the canonical SPO ordering
   ([triple_row]/[row_triple]); the parallel engine uses these row ids
   as positions in per-worker output bitsets. *)

type t = {
  dict : Dict.t;
  n : int;
  spo_s : int array; spo_p : int array; spo_o : int array;
  pos_p : int array; pos_o : int array; pos_s : int array;
  osp_o : int array; osp_s : int array; osp_p : int array;
  spo_off : int array; pos_off : int array; osp_off : int array;
      (* per-id row offsets of each ordering's leading column *)
  nodes : Term.Set.t;   (* decoded N(G), cached at build time *)
  node_ids : bool array; (* id is a subject or object *)
}

let n_triples t = t.n
let n_terms t = Dict.size t.dict
let dict t = t.dict
let id t x = Dict.find t.dict x
let pred_id t p = Dict.find t.dict (Term.Iri p)
let term t i = Dict.term t.dict i
let nodes t = t.nodes

let iri_of_id t i =
  match Dict.term t.dict i with
  | Term.Iri p -> p
  | _ -> invalid_arg "Store.iri_of_id: id is not an IRI"

(* ---------------- construction ------------------------------------- *)

(* Comparison sort of a few rows: [patch]'s added rows. *)
let sort_rows s p o order =
  (* [order] is a permutation of row indices; sort it lexicographically
     by the three key columns given. *)
  let cmp i j =
    let c = Int.compare s.(i) s.(j) in
    if c <> 0 then c
    else
      let c = Int.compare p.(i) p.(j) in
      if c <> 0 then c else Int.compare o.(i) o.(j)
  in
  Array.sort cmp order;
  order

(* The rows of the three key columns, sorted lexicographically in that
   key order. *)
let sorted_columns keys1 keys2 keys3 =
  let n = Array.length keys1 in
  let order = sort_rows keys1 keys2 keys3 (Array.init n Fun.id) in
  let a = Array.make n 0 and b = Array.make n 0 and c = Array.make n 0 in
  Array.iteri
    (fun k r -> a.(k) <- keys1.(r); b.(k) <- keys2.(r); c.(k) <- keys3.(r))
    order;
  a, b, c

(* Stable counting sort of the row indices [rows] by [key.(row)], keys
   in [0, k): one count, one prefix sum, one scatter — O(rows + k), no
   comparator. *)
let by_key k key rows =
  let m = Array.length rows in
  let next = Array.make (k + 1) 0 in
  for i = 0 to m - 1 do
    let x = key.(rows.(i)) + 1 in
    next.(x) <- next.(x) + 1
  done;
  for x = 1 to k do
    next.(x) <- next.(x) + next.(x - 1)
  done;
  let out = Array.make m 0 in
  for i = 0 to m - 1 do
    let r = rows.(i) in
    let x = key.(r) in
    out.(next.(x)) <- r;
    next.(x) <- next.(x) + 1
  done;
  out

(* The [n] rows in lexicographic order of [keys] (most significant
   first): least-significant-digit passes of [by_key], each stable, so
   a key the rows are already sorted by needs no pass of its own. *)
let radix k keys n = List.fold_right (by_key k) keys (Array.init n Fun.id)

let gather col rows = Array.map (fun r -> col.(r)) rows

(* Row offsets of a sorted leading column over ids [0, k): one counting
   pass and a prefix sum, so the rows of id [i] are
   [off.(i), off.(i + 1)). *)
let offsets k col =
  let off = Array.make (k + 1) 0 in
  Array.iter (fun x -> off.(x + 1) <- off.(x + 1) + 1) col;
  for x = 1 to k do
    off.(x) <- off.(x) + off.(x - 1)
  done;
  off

let make ~dict ~n ~spo:(spo_s, spo_p, spo_o) ~pos:(pos_p, pos_o, pos_s)
    ~osp:(osp_o, osp_s, osp_p) ~nodes ~node_ids =
  let k = Dict.size dict in
  { dict; n; spo_s; spo_p; spo_o; pos_p; pos_o; pos_s; osp_o; osp_s; osp_p;
    spo_off = offsets k spo_s; pos_off = offsets k pos_p;
    osp_off = offsets k osp_o; nodes; node_ids }

let of_interned dict ~n:m s p o =
  let rank = Dict.sort dict in
  let k = Dict.size dict in
  let rs = Array.init m (fun i -> rank.(s.(i)))
  and rp = Array.init m (fun i -> rank.(p.(i)))
  and ro = Array.init m (fun i -> rank.(o.(i))) in
  (* canonical SPO order, deduplicated *)
  let order = radix k [ rs; rp; ro ] m in
  let keep = Array.make m 0 and n = ref 0 in
  Array.iteri
    (fun j r ->
      let dup =
        j > 0
        &&
        let q = order.(j - 1) in
        rs.(q) = rs.(r) && rp.(q) = rp.(r) && ro.(q) = ro.(r)
      in
      if not dup then begin keep.(!n) <- r; incr n end)
    order;
  let order = Array.sub keep 0 !n and n = !n in
  let spo_s = gather rs order and spo_p = gather rp order
  and spo_o = gather ro order in
  (* POS from SPO: the rows are already sorted by s, so passes on o and
     then p give (p, o, s); OSP from POS likewise by s, then o *)
  let order = radix k [ spo_p; spo_o ] n in
  let pos_p = gather spo_p order and pos_o = gather spo_o order
  and pos_s = gather spo_s order in
  let order = radix k [ pos_o; pos_s ] n in
  let osp_o = gather pos_o order and osp_s = gather pos_s order
  and osp_p = gather pos_p order in
  let node_ids = Array.make k false in
  Array.iter (fun s -> node_ids.(s) <- true) spo_s;
  Array.iter (fun o -> node_ids.(o) <- true) spo_o;
  let nodes = ref [] in
  for i = k - 1 downto 0 do
    if node_ids.(i) then nodes := Dict.term dict i :: !nodes
  done;
  make ~dict ~n ~spo:(spo_s, spo_p, spo_o) ~pos:(pos_p, pos_o, pos_s)
    ~osp:(osp_o, osp_s, osp_p) ~nodes:(Term.Set.of_list !nodes) ~node_ids

let of_triples triples =
  let m = Array.length triples in
  let dict = Dict.create ~hint:(m + 1) () in
  let column f = Array.map (fun tr -> Dict.intern dict (f tr)) triples in
  let s = column Triple.subject
  and p = column (fun tr -> Term.Iri (Triple.predicate tr))
  and o = column Triple.object_ in
  of_interned dict ~n:m s p o

let is_node_id t i = i >= 0 && i < Array.length t.node_ids && t.node_ids.(i)

(* ---------------- binary searches ---------------------------------- *)

(* First row in [lo, hi) with [a.(row)] >= k / > k: plain int loops, no
   closures, no allocation. *)
let lb a k lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < k then lo := mid + 1 else hi := mid
  done;
  !lo

let ub a k lo hi =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= k then lo := mid + 1 else hi := mid
  done;
  !lo

let lb3 a b c ka kb kc n =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let am = a.(mid) in
    if
      am < ka
      || (am = ka
          &&
          let bm = b.(mid) in
          bm < kb || (bm = kb && c.(mid) < kc))
    then lo := mid + 1
    else hi := mid
  done;
  !lo

(* ---------------- range lookups (ids) ------------------------------ *)

(* The first row of id [i] in an ordering with offsets [off]; ids past
   the dictionary start at the end, so every out-of-range id has an
   empty range. *)
let first off i =
  if i <= 0 then 0
  else if i < Array.length off then off.(i)
  else off.(Array.length off - 1)

let subject_lo t s = first t.spo_off s
let subject_hi t s = first t.spo_off (s + 1)
let subject_range t s = subject_lo t s, subject_hi t s
let object_range t o = first t.osp_off o, first t.osp_off (o + 1)
let predicate_range t p = first t.pos_off p, first t.pos_off (p + 1)

(* Two-id ranges: a binary search on the second column inside the
   leading id's rows. *)
let objects_lo t ~s ~p = lb t.spo_p p (subject_lo t s) (subject_hi t s)
let objects_hi t ~s ~p = ub t.spo_p p (subject_lo t s) (subject_hi t s)
let objects_range t ~s ~p = objects_lo t ~s ~p, objects_hi t ~s ~p

let subjects_lo t ~p ~o =
  lb t.pos_o o (first t.pos_off p) (first t.pos_off (p + 1))

let subjects_hi t ~p ~o =
  ub t.pos_o o (first t.pos_off p) (first t.pos_off (p + 1))

let subjects_range t ~p ~o = subjects_lo t ~p ~o, subjects_hi t ~p ~o

let preds_range t ~o ~s =
  let lo = first t.osp_off o and hi = first t.osp_off (o + 1) in
  lb t.osp_s s lo hi, ub t.osp_s s lo hi

let spo_obj t i = t.spo_o.(i)
let spo_pred t i = t.spo_p.(i)
let spo_subj t i = t.spo_s.(i)
let pos_subj t i = t.pos_s.(i)
let pos_obj t i = t.pos_o.(i)
let pos_pred t i = t.pos_p.(i)
let osp_pred t i = t.osp_p.(i)
let osp_subj t i = t.osp_s.(i)
let osp_obj t i = t.osp_o.(i)

(* The row of (s, p, o): a search on the object inside the (s, p)
   range, whose objects ascend; -1 when absent. *)
let row_ids t s p o =
  let hi = objects_hi t ~s ~p in
  let i = lb t.spo_o o (objects_lo t ~s ~p) hi in
  if i < hi && t.spo_o.(i) = o then i else -1

let mem_ids t s p o = row_ids t s p o >= 0

let triple_row t s p o =
  let i = row_ids t s p o in
  if i >= 0 then Some i else None

let row_triple t i =
  Triple.make (term t t.spo_s.(i)) (iri_of_id t t.spo_p.(i)) (term t t.spo_o.(i))

let row_of_triple t tr =
  match
    ( id t (Triple.subject tr),
      pred_id t (Triple.predicate tr),
      id t (Triple.object_ tr) )
  with
  | Some s, Some p, Some o -> triple_row t s p o
  | _ -> None

(* ---------------- patching ----------------------------------------- *)

(* [patch t ~removes ~adds] is the store [of_triples] builds for
   (G - removes) ∪ adds, derived from [t] in time linear in the rows and
   terms, with no sort of the old rows.  Ids are ranks in Term.compare
   order, so a term entering or leaving the graph shifts the ids above
   it by one; the shift is monotone, which keeps every index ordering
   of the remapped old rows sorted, and the few added rows are merged
   in.  When no term enters or leaves, the dictionary is shared. *)

let len (lo, hi) = hi - lo

let row_lt a b c x y z = a < x || (a = x && (b < y || (b = y && c < z)))

(* One index ordering of the patched store: the old rows (key columns
   [a, b, c]) through [remap], minus those at the sorted positions
   [skip], merged with the sorted added rows [xa, xb, xc]. *)
let merge_rows ~remap ~skip (a, b, c) (xa, xb, xc) =
  let n_old = Array.length a and m = Array.length xa in
  let n_skip = Array.length skip in
  let n = n_old - n_skip + m in
  let ra = Array.make n 0 and rb = Array.make n 0 and rc = Array.make n 0 in
  let i = ref 0 and j = ref 0 and s = ref 0 in
  for k = 0 to n - 1 do
    while !s < n_skip && skip.(!s) = !i do incr i; incr s done;
    let take_old =
      !i < n_old
      && (!j >= m
         || row_lt remap.(a.(!i)) remap.(b.(!i)) remap.(c.(!i))
              xa.(!j) xb.(!j) xc.(!j))
    in
    if take_old then begin
      ra.(k) <- remap.(a.(!i));
      rb.(k) <- remap.(b.(!i));
      rc.(k) <- remap.(c.(!i));
      incr i
    end
    else begin
      ra.(k) <- xa.(!j); rb.(k) <- xb.(!j); rc.(k) <- xc.(!j); incr j
    end
  done;
  ra, rb, rc

(* Sorted [a] minus sorted [b], both duplicate-free. *)
let rec diff_sorted a b =
  match a, b with
  | [], _ -> []
  | _, [] -> a
  | x :: a', y :: b' ->
      if x < y then x :: diff_sorted a' b
      else if x > y then diff_sorted a b'
      else diff_sorted a' b'

(* Number of dictionary terms strictly below [x]. *)
let rank dict x =
  let lo = ref 0 and hi = ref (Dict.size dict) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Term.compare (Dict.term dict mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let patch t ~removes ~adds =
  let rows l =
    List.sort_uniq Int.compare (List.filter_map (row_of_triple t) l)
  in
  (* a triple both removed and added stays *)
  let gone = diff_sorted (rows removes) (rows adds) in
  let added =
    List.sort_uniq Triple.compare
      (List.filter (fun tr -> row_of_triple t tr = None) adds)
  in
  if gone = [] && added = [] then t
  else begin
    let endpoints tr = [ Triple.subject tr; Triple.object_ tr ] in
    let terms_of tr = Term.Iri (Triple.predicate tr) :: endpoints tr in
    (* terms entering the graph *)
    let fresh =
      List.concat_map terms_of added
      |> List.filter (fun x -> id t x = None)
      |> List.sort_uniq Term.compare |> Array.of_list
    in
    (* terms leaving it: every occurrence sits in a removed row and no
       added triple mentions them *)
    let occ = Hashtbl.create 16 in
    let bump x =
      Hashtbl.replace occ x
        (1 + Option.value (Hashtbl.find_opt occ x) ~default:0)
    in
    List.iter
      (fun r -> bump t.spo_s.(r); bump t.spo_p.(r); bump t.spo_o.(r))
      gone;
    let kept = Hashtbl.create 16 in
    List.iter
      (fun tr ->
        List.iter
          (fun x -> Option.iter (fun i -> Hashtbl.replace kept i ()) (id t x))
          (terms_of tr))
      added;
    let dropped =
      Hashtbl.fold
        (fun x k acc ->
          if
            (not (Hashtbl.mem kept x))
            && k
               = len (subject_range t x)
                 + len (object_range t x)
                 + len (predicate_range t x)
          then x :: acc
          else acc)
        occ []
    in
    let n_old = n_terms t in
    let dict, remap =
      if Array.length fresh = 0 && dropped = [] then
        (t.dict, Array.init n_old Fun.id)
      else begin
        let is_dropped = Array.make n_old false in
        List.iter (fun x -> is_dropped.(x) <- true) dropped;
        let k = Array.length fresh in
        let terms =
          Array.make (n_old - List.length dropped + k) (Term.Blank "")
        in
        let remap = Array.make n_old (-1) in
        (* fresh.(j) goes right before the old term of id ins.(j) *)
        let ins = Array.map (rank t.dict) fresh in
        let next = ref 0 and j = ref 0 in
        let emit x = terms.(!next) <- x; incr next in
        for i = 0 to n_old - 1 do
          while !j < k && ins.(!j) <= i do emit fresh.(!j); incr j done;
          if not is_dropped.(i) then begin
            remap.(i) <- !next;
            emit (Dict.term t.dict i)
          end
        done;
        while !j < k do emit fresh.(!j); incr j done;
        (Dict.of_sorted terms, remap)
      end
    in
    let nid x =
      match Dict.find dict x with Some i -> i | None -> assert false
    in
    let m = List.length added in
    let xs = Array.make m 0 and xp = Array.make m 0 and xo = Array.make m 0 in
    List.iteri
      (fun k tr ->
        xs.(k) <- nid (Triple.subject tr);
        xp.(k) <- nid (Term.Iri (Triple.predicate tr));
        xo.(k) <- nid (Triple.object_ tr))
      added;
    (* positions of the removed rows in each ordering *)
    let skip pos =
      Array.of_list (List.sort Int.compare (List.map pos gone))
    in
    let skip_spo = Array.of_list gone in
    let skip_pos =
      skip (fun r ->
          lb3 t.pos_p t.pos_o t.pos_s t.spo_p.(r) t.spo_o.(r) t.spo_s.(r) t.n)
    in
    let skip_osp =
      skip (fun r ->
          lb3 t.osp_o t.osp_s t.osp_p t.spo_o.(r) t.spo_s.(r) t.spo_p.(r) t.n)
    in
    let spo_s, spo_p, spo_o =
      merge_rows ~remap ~skip:skip_spo
        (t.spo_s, t.spo_p, t.spo_o)
        (sorted_columns xs xp xo)
    in
    let pos_p, pos_o, pos_s =
      merge_rows ~remap ~skip:skip_pos
        (t.pos_p, t.pos_o, t.pos_s)
        (sorted_columns xp xo xs)
    in
    let osp_o, osp_s, osp_p =
      merge_rows ~remap ~skip:skip_osp
        (t.osp_o, t.osp_s, t.osp_p)
        (sorted_columns xo xs xp)
    in
    let n = Array.length spo_s in
    (* node flags carry over; only the endpoints of changed rows can
       gain or lose their last subject/object position *)
    let node_ids = Array.make (Dict.size dict) false in
    Array.iteri
      (fun i b -> if b && remap.(i) >= 0 then node_ids.(remap.(i)) <- true)
      t.node_ids;
    let nodes = ref t.nodes in
    let occurs a i = ub a i 0 n > lb a i 0 n in
    let touch x =
      let was = match id t x with Some i -> t.node_ids.(i) | None -> false in
      match Dict.find dict x with
      | Some i when occurs spo_s i || occurs osp_o i ->
          node_ids.(i) <- true;
          if not was then nodes := Term.Set.add (Dict.term dict i) !nodes
      | found ->
          Option.iter (fun i -> node_ids.(i) <- false) found;
          if was then nodes := Term.Set.remove x !nodes
    in
    List.iter (fun r -> List.iter touch (endpoints (row_triple t r))) gone;
    List.iter (fun tr -> List.iter touch (endpoints tr)) added;
    make ~dict ~n ~spo:(spo_s, spo_p, spo_o) ~pos:(pos_p, pos_o, pos_s)
      ~osp:(osp_o, osp_s, osp_p) ~nodes:!nodes ~node_ids
  end

let equal a b =
  let rec same_terms i =
    i >= n_terms a || (Term.equal (term a i) (term b i) && same_terms (i + 1))
  in
  a.n = b.n && n_terms a = n_terms b && same_terms 0
  && a.spo_s = b.spo_s && a.spo_p = b.spo_p && a.spo_o = b.spo_o
  && a.pos_p = b.pos_p && a.pos_o = b.pos_o && a.pos_s = b.pos_s
  && a.osp_o = b.osp_o && a.osp_s = b.osp_s && a.osp_p = b.osp_p
  && a.node_ids = b.node_ids
  && Term.Set.equal a.nodes b.nodes

(* ---------------- term-level conveniences --------------------------- *)

let mem t s p o =
  match id t s, pred_id t p, id t o with
  | Some s, Some p, Some o -> mem_ids t s p o
  | _ -> false

let subject_triples t s =
  match id t s with
  | None -> []
  | Some sid ->
      let lo, hi = subject_range t sid in
      let acc = ref [] in
      for i = hi - 1 downto lo do
        acc := row_triple t i :: !acc
      done;
      !acc

let object_triples t o =
  match id t o with
  | None -> []
  | Some oid ->
      let lo, hi = object_range t oid in
      let acc = ref [] in
      for i = hi - 1 downto lo do
        acc :=
          Triple.make (term t t.osp_s.(i)) (iri_of_id t t.osp_p.(i)) (term t oid)
          :: !acc
      done;
      !acc

let predicate_triples t p =
  match pred_id t p with
  | None -> []
  | Some pid ->
      let lo, hi = predicate_range t pid in
      let acc = ref [] in
      for i = hi - 1 downto lo do
        acc :=
          Triple.make (term t t.pos_s.(i)) (iri_of_id t pid) (term t t.pos_o.(i))
          :: !acc
      done;
      !acc

let out_predicates t s =
  match id t s with
  | None -> Iri.Set.empty
  | Some sid ->
      let lo, hi = subject_range t sid in
      let acc = ref Iri.Set.empty in
      let last = ref (-1) in
      for i = lo to hi - 1 do
        let p = t.spo_p.(i) in
        if p <> !last then begin
          last := p;
          acc := Iri.Set.add (iri_of_id t p) !acc
        end
      done;
      !acc
