(* Append-only write-ahead log of graph deltas.  See journal.mli for
   the record layout and the durability/recovery contracts. *)

type policy = Always | Every of int | Never

let policy_of_string s =
  match String.lowercase_ascii s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s when String.length s > 6 && String.sub s 0 6 = "every:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some n when n >= 1 -> Ok (Every n)
      | _ -> Result.Error "every:N needs an integer N >= 1")
  | _ -> Result.Error "expected always, never or every:N"

let pp_policy ppf = function
  | Always -> Format.pp_print_string ppf "always"
  | Never -> Format.pp_print_string ppf "never"
  | Every n -> Format.fprintf ppf "every:%d" n

exception Corrupt of { path : string; offset : int; reason : string }

type t = {
  dir : string;
  log_path : string;
  fd : Unix.file_descr;  (* O_APPEND writer for the segment *)
  policy : policy;
  mutable size : int;      (* segment bytes *)
  mutable records : int;   (* records in the segment *)
  mutable seq : int;       (* highest sequence number written *)
  mutable unsynced : int;  (* appends since the last fsync *)
  mutable fsyncs : int;
}

type recovery = {
  journal : t;
  graph : Rdf.Graph.t;
  last_seq : int;
  replayed : int;
  discarded : int;
  fresh : bool;
}

(* ---------------- CRC-32 (IEEE 802.3) ------------------------------- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xffffffff in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xffffffff

(* ---------------- fixed-width big-endian integers ------------------- *)

let put_u32 b v =
  for i = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put_u64 b v =
  for i = 7 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u32 s off =
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

let get_u64 s off =
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

(* ---------------- paths and raw I/O --------------------------------- *)

let log_path dir = Filename.concat dir "journal.log"
let snapshot_path dir = Filename.concat dir "snapshot.ttl"
let snapshot_magic = "# shaclprov-snapshot seq="

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let written = ref 0 in
  while !written < len do
    written := !written + Unix.write fd b !written (len - !written)
  done

(* ---------------- recovery ------------------------------------------ *)

let load_snapshot dir =
  let path = snapshot_path dir in
  if not (Sys.file_exists path) then (Rdf.Graph.empty, 0)
  else
    let text = read_file path in
    let corrupt reason = raise (Corrupt { path; offset = 0; reason }) in
    let header =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    let magic_len = String.length snapshot_magic in
    if
      String.length header < magic_len
      || String.sub header 0 magic_len <> snapshot_magic
    then corrupt "missing snapshot header"
    else
      match
        int_of_string_opt
          (String.sub header magic_len (String.length header - magic_len))
      with
      | None -> corrupt "unreadable snapshot sequence number"
      | Some seq -> (
          match Rdf.Turtle.parse text with
          | Ok g -> (g, seq)
          | Result.Error e ->
              corrupt (Format.asprintf "%a" Rdf.Turtle.pp_error e))

(* One pass over the segment.  Returns the replayed graph, the counts,
   and where the valid prefix ends (everything after it is a torn tail
   to truncate).  Raises [Corrupt] when an invalid record is followed by
   more data — that is in-place damage, not a crash residue.  The
   records to replay fold into one net delta ([Rdf.Delta.Net]): applying
   it once equals applying them one by one, but patches a frozen
   snapshot's store once instead of once per record. *)
let replay ~path ~snap_seq ~graph bytes =
  let size = String.length bytes in
  let net = Rdf.Delta.Net.create () in
  let replayed = ref 0 in
  let records = ref 0 in
  let last = ref snap_seq in
  let prev = ref None in
  let off = ref 0 in
  let torn = ref None in
  let corrupt offset reason = raise (Corrupt { path; offset; reason }) in
  while !off < size && !torn = None do
       let start = !off in
       if size - start < 8 then torn := Some start
       else begin
         let len = get_u32 bytes start in
         let crc = get_u32 bytes (start + 4) in
         if len < 8 then
           (* too short to hold a sequence number: garbage length.  If
              nothing follows, call it a torn write; otherwise the
              segment is damaged in place. *)
           corrupt start "record shorter than its header"
         else if start + 8 + len > size then torn := Some start
         else begin
           let payload = String.sub bytes (start + 8) len in
           if crc32 payload <> crc then
             if start + 8 + len = size then torn := Some start
             else corrupt start "checksum mismatch mid-segment"
           else begin
             let seq = get_u64 payload 0 in
             (match !prev with
             | Some p when seq <> p + 1 ->
                 corrupt start
                   (Printf.sprintf "sequence %d after %d (gap or reorder)" seq
                      p)
             | None when seq > snap_seq + 1 ->
                 corrupt start
                   (Printf.sprintf
                      "first record has sequence %d but the snapshot covers \
                       %d"
                      seq snap_seq)
             | _ -> ());
             if seq > snap_seq then begin
               match
                 Rdf.Delta.decode (String.sub payload 8 (len - 8))
               with
               | Ok delta ->
                   Rdf.Delta.Net.note net delta;
                   incr replayed
               | Result.Error msg -> corrupt start msg
             end;
             prev := Some seq;
             if seq > !last then last := seq;
             incr records;
             off := start + 8 + len
           end
         end
       end
  done;
  let valid_end = match !torn with Some o -> o | None -> !off in
  let g =
    if !replayed = 0 then graph
    else Rdf.Delta.apply (Rdf.Delta.Net.delta net) graph
  in
  (g, !last, !replayed, !records, valid_end, size - valid_end)

let recover ?(policy = Always) dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let graph, snap_seq = load_snapshot dir in
  let path = log_path dir in
  let had_snapshot = Sys.file_exists (snapshot_path dir) in
  let bytes = if Sys.file_exists path then read_file path else "" in
  let graph, last_seq, replayed, records, valid_end, discarded =
    replay ~path ~snap_seq ~graph bytes
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  (try if discarded > 0 then Unix.ftruncate fd valid_end
   with e -> Unix.close fd; raise e);
  let journal =
    { dir;
      log_path = path;
      fd;
      policy;
      size = valid_end;
      records;
      seq = last_seq;
      unsynced = 0;
      fsyncs = 0 }
  in
  { journal;
    graph;
    last_seq;
    replayed;
    discarded;
    fresh = (not had_snapshot) && String.length bytes = 0 }

(* ---------------- appending ----------------------------------------- *)

let do_fsync t =
  Fault.probe "journal.fsync";
  Unix.fsync t.fd;
  t.fsyncs <- t.fsyncs + 1;
  t.unsynced <- 0

let append t delta =
  (* The probe sits before the first byte is written, so an injected
     append fault leaves the segment untouched. *)
  Fault.probe "journal.append";
  let seq = t.seq + 1 in
  let payload = Buffer.create 256 in
  put_u64 payload seq;
  Buffer.add_string payload (Rdf.Delta.encode delta);
  let payload = Buffer.contents payload in
  let record = Buffer.create (String.length payload + 8) in
  put_u32 record (String.length payload);
  put_u32 record (crc32 payload);
  Buffer.add_string record payload;
  let record = Buffer.contents record in
  let before = t.size in
  (try
     write_all t.fd record;
     t.size <- before + String.length record;
     t.unsynced <- t.unsynced + 1;
     match t.policy with
     | Always -> do_fsync t
     | Every n -> if t.unsynced >= n then do_fsync t
     | Never -> ()
   with e ->
     (* Roll the segment back so an update whose append failed — and was
        therefore never acknowledged — cannot reappear at recovery. *)
     (try Unix.ftruncate t.fd before with Unix.Unix_error _ -> ());
     t.size <- before;
     raise e);
  t.seq <- seq;
  t.records <- t.records + 1;
  seq

let sync t = if t.unsynced > 0 then do_fsync t

(* ---------------- snapshotting -------------------------------------- *)

let snapshot t graph =
  let path = snapshot_path t.dir in
  let tmp =
    Filename.temp_file ~temp_dir:t.dir (Filename.basename path ^ ".") ".tmp"
  in
  (try
     let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         write_all fd (Printf.sprintf "%s%d\n" snapshot_magic t.seq);
         write_all fd (Rdf.Turtle.to_string graph);
         Unix.fsync fd)
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  (* A crash between the rename and this truncate is safe: replay skips
     records the snapshot already covers. *)
  Unix.ftruncate t.fd 0;
  Unix.fsync t.fd;
  t.size <- 0;
  t.records <- 0;
  t.unsynced <- 0

let last_seq t = t.seq

type stats = { records : int; bytes : int; fsyncs : int }

let stats (t : t) = { records = t.records; bytes = t.size; fsyncs = t.fsyncs }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
