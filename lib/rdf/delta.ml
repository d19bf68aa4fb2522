type t = {
  removes : Triple.t list;
  adds : Triple.t list;
}

let make ?(removes = []) ?(adds = []) () = { removes; adds }

let empty = { removes = []; adds = [] }
let is_empty d = d.removes = [] && d.adds = []
let size d = List.length d.removes + List.length d.adds

let apply d g = Graph.patch ~removes:d.removes ~adds:d.adds g

(* A triple both removed and added ends up present, as [Graph.patch]
   leaves it, so its removal is a no-op too. *)
let effective d g =
  let adds =
    List.sort_uniq Triple.compare
      (List.filter (fun tr -> not (Graph.mem tr g)) d.adds)
  in
  let readded = Triple.Set.of_list d.adds in
  let removes =
    List.sort_uniq Triple.compare
      (List.filter
         (fun tr -> Graph.mem tr g && not (Triple.Set.mem tr readded))
         d.removes)
  in
  { removes; adds }

let terms d =
  let endpoints acc tr =
    Term.Set.add (Triple.subject tr) (Term.Set.add (Triple.object_ tr) acc)
  in
  List.fold_left endpoints
    (List.fold_left endpoints Term.Set.empty d.removes)
    d.adds

module Net = struct
  type delta = t

  (* each noted triple -> whether its last operation was an add *)
  module Tbl = Hashtbl.Make (Triple)

  type t = bool Tbl.t

  let create () = Tbl.create 64
  let is_empty net = Tbl.length net = 0
  let clear = Tbl.reset

  let note net (d : delta) =
    List.iter (fun tr -> Tbl.replace net tr false) d.removes;
    List.iter (fun tr -> Tbl.replace net tr true) d.adds

  let delta net =
    let removes, adds =
      Tbl.fold
        (fun tr add (removes, adds) ->
          if add then (removes, tr :: adds) else (tr :: removes, adds))
        net ([], [])
    in
    { removes; adds }
end

(* ---------------- byte encoding ------------------------------------- *)

(* [u32 removes_len][removes turtle][adds turtle].  Each side is a
   Turtle document (the serializer round-trips exactly, blank labels
   included), so the encoding is set-semantic: duplicates collapse and
   order is canonical after a decode.  Turtle text can contain newlines
   — the fixed-width length header does the framing, no line discipline
   is assumed. *)

let put_u32 b v =
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let encode d =
  let part triples = Turtle.to_string (Graph.of_list triples) in
  let removes = part d.removes in
  let adds = part d.adds in
  let b = Buffer.create (String.length removes + String.length adds + 4) in
  put_u32 b (String.length removes);
  Buffer.add_string b removes;
  Buffer.add_string b adds;
  Buffer.contents b

let decode s =
  if String.length s < 4 then Result.Error "delta: truncated length header"
  else
    let rlen = get_u32 s 0 in
    if rlen < 0 || 4 + rlen > String.length s then
      Result.Error "delta: removal section overruns the payload"
    else
      let parse what text =
        match Turtle.parse text with
        | Ok g -> Ok (Graph.to_list g)
        | Result.Error e ->
            Result.Error
              (Format.asprintf "delta %s section: %a" what Turtle.pp_error e)
      in
      match parse "removal" (String.sub s 4 rlen) with
      | Result.Error _ as e -> e
      | Ok removes -> (
          match
            parse "addition"
              (String.sub s (4 + rlen) (String.length s - 4 - rlen))
          with
          | Result.Error _ as e -> e
          | Ok adds -> Ok { removes; adds })

let pp ppf d =
  Format.pp_open_vbox ppf 0;
  List.iter (fun tr -> Format.fprintf ppf "- %a@," Triple.pp tr) d.removes;
  List.iter (fun tr -> Format.fprintf ppf "+ %a@," Triple.pp tr) d.adds;
  Format.pp_close_box ppf ()
