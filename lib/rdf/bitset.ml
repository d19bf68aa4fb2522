type t = { bytes : Bytes.t; n : int }

let add t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: id %d outside universe [0,%d)" i t.n);
  let k = i lsr 3 in
  Bytes.unsafe_set t.bytes k
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bytes k) lor (1 lsl (i land 7))))

let of_list n ids =
  let t = { bytes = Bytes.make ((n + 7) / 8) '\000'; n } in
  List.iter (fun i -> add t i) ids;
  t

let iter f t =
  for k = 0 to Bytes.length t.bytes - 1 do
    let b = Char.code (Bytes.unsafe_get t.bytes k) in
    if b <> 0 then
      for j = 0 to 7 do
        if b land (1 lsl j) <> 0 then f ((k lsl 3) lor j)
      done
  done
