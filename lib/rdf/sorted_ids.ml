(* Ascending, duplicate-free int arrays: the id-space value sets of the
   path kernel, the verdict pass and the row collector.  Ids ascend
   with terms, so these arrays decode to ascending term sequences like
   [Term.Set] folds do. *)

let mem (arr : int array) x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length arr && arr.(!lo) = x

let equal (a : int array) (b : int array) =
  a == b
  || (Array.length a = Array.length b
     &&
     let n = Array.length a in
     let rec same i = i = n || (a.(i) = b.(i) && same (i + 1)) in
     same 0)

let union (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < la && !j < lb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then begin out.(!k) <- x; incr i end
      else if y < x then begin out.(!k) <- y; incr j end
      else begin out.(!k) <- x; incr i; incr j end;
      incr k
    done;
    while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
    while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let add arr x = if mem arr x then arr else union arr [| x |]

let inter (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (min la lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else begin
      out.(!k) <- x;
      incr i;
      incr j;
      incr k
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let diff (a : int array) (b : int array) =
  let out = Array.make (Array.length a) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < Array.length a do
    if !j < Array.length b && b.(!j) < a.(!i) then incr j
    else begin
      if not (!j < Array.length b && b.(!j) = a.(!i)) then begin
        out.(!k) <- a.(!i);
        incr k
      end;
      incr i
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let disjoint (a : int array) (b : int array) =
  let i = ref 0 and j = ref 0 and ok = ref true in
  while !ok && !i < Array.length a && !j < Array.length b do
    if a.(!i) < b.(!j) then incr i
    else if a.(!i) > b.(!j) then incr j
    else ok := false
  done;
  !ok

let filter keep (xs : int array) =
  let n = Array.length xs in
  let rec kept i = if i = n then xs else if keep xs.(i) then kept (i + 1) else from i
  and from i0 =
    let out = Array.make n 0 in
    Array.blit xs 0 out 0 i0;
    let k = ref i0 in
    for i = i0 + 1 to n - 1 do
      if keep xs.(i) then begin
        out.(!k) <- xs.(i);
        incr k
      end
    done;
    Array.sub out 0 !k
  in
  kept 0

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x
end)
