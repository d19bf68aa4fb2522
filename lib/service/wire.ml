(* Line-delimited JSON wire protocol: a hand-rolled JSON subset (the
   repo is stdlib-only), the request/reply codecs, and line-framed
   socket I/O shared by server and client. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  (* ---- emission: one line, control characters escaped -------------- *)

  (* Unescaped runs are copied whole. *)
  let escape_string buf s =
    Buffer.add_char buf '"';
    let n = String.length s in
    let start = ref 0 in
    for i = 0 to n - 1 do
      let c = String.unsafe_get s i in
      if c = '"' || c = '\\' || Char.code c < 0x20 then begin
        Buffer.add_substring buf s !start (i - !start);
        start := i + 1;
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      end
    done;
    Buffer.add_substring buf s !start (n - !start);
    Buffer.add_char buf '"'

  let number_to_string f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  (* The encoded length before escapes, plus an eighth for them. *)
  let size v =
    let rec base = function
      | Null | Bool _ | Num _ -> 24
      | Str s -> String.length s + 2
      | Arr l -> List.fold_left (fun n x -> n + 1 + base x) 2 l
      | Obj fields ->
          List.fold_left (fun n (k, x) -> n + String.length k + 4 + base x) 2 fields
    in
    let n = base v in
    n + (n / 8)

  let to_string v =
    let buf = Buffer.create (size v) in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Num f -> Buffer.add_string buf (number_to_string f)
      | Str s -> escape_string buf s
      | Arr l ->
          Buffer.add_char buf '[';
          List.iteri
            (fun i x ->
              if i > 0 then Buffer.add_char buf ',';
              go x)
            l;
          Buffer.add_char buf ']'
      | Obj fields ->
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, x) ->
              if i > 0 then Buffer.add_char buf ',';
              escape_string buf k;
              Buffer.add_char buf ':';
              go x)
            fields;
          Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  (* ---- parsing: recursive descent, total on arbitrary bytes -------- *)

  exception Bad of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "at offset %d: %s" !pos msg)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    (* A string with an escape is decoded into [scratch], made on the
       first such string as long as the line: no decoded string is
       longer than the line. *)
    let scratch = ref Bytes.empty and len = ref 0 in
    let put c =
      Bytes.unsafe_set !scratch !len c;
      incr len
    in
    let utf8_of_code u =
      (* encode a Unicode scalar value as UTF-8 bytes *)
      if u < 0x80 then put (Char.chr u)
      else if u < 0x800 then begin
        put (Char.chr (0xC0 lor (u lsr 6)));
        put (Char.chr (0x80 lor (u land 0x3F)))
      end
      else if u < 0x10000 then begin
        put (Char.chr (0xE0 lor (u lsr 12)));
        put (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        put (Char.chr (0x80 lor (u land 0x3F)))
      end
      else begin
        put (Char.chr (0xF0 lor (u lsr 18)));
        put (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
        put (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        put (Char.chr (0x80 lor (u land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let h = String.sub s !pos 4 in
      pos := !pos + 4;
      match int_of_string_opt ("0x" ^ h) with
      | Some v -> v
      | None -> fail (Printf.sprintf "bad \\u escape %S" h)
    in
    (* the first quote or backslash at or after [i], or [n] *)
    let stop i =
      let j = ref i in
      while
        !j < n
        && match String.unsafe_get s !j with '"' | '\\' -> false | _ -> true
      do
        incr j
      done;
      !j
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      let j = stop start in
      if j < n && s.[j] = '"' then begin
        (* no escape: the slice itself *)
        pos := j + 1;
        String.sub s start (j - start)
      end
      else begin
        if Bytes.length !scratch = 0 then scratch := Bytes.create n;
        len := 0;
        (* copy up to the next quote or backslash in one piece *)
        let rec go () =
          let j = stop !pos in
          Bytes.blit_string s !pos !scratch !len (j - !pos);
          len := !len + (j - !pos);
          pos := j;
          if !pos >= n then fail "unterminated string";
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Bytes.sub_string !scratch 0 !len
          | _ ->
              (if !pos >= n then fail "truncated escape";
               let e = s.[!pos] in
               advance ();
               match e with
               | '"' -> put '"'
               | '\\' -> put '\\'
               | '/' -> put '/'
               | 'n' -> put '\n'
               | 'r' -> put '\r'
               | 't' -> put '\t'
               | 'b' -> put '\b'
               | 'f' -> put '\012'
               | 'u' ->
                   let u = hex4 () in
                   (* surrogate pair for astral code points *)
                   if u >= 0xD800 && u <= 0xDBFF then begin
                     if !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                     then begin
                       pos := !pos + 2;
                       let lo = hex4 () in
                       if lo >= 0xDC00 && lo <= 0xDFFF then
                         utf8_of_code
                           (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                       else fail "unpaired surrogate"
                     end
                     else fail "unpaired surrogate"
                   end
                   else if u >= 0xDC00 && u <= 0xDFFF then
                     fail "unpaired surrogate"
                   else utf8_of_code u
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
              go ()
        in
        go ()
      end
    in
    let parse_number () =
      let start = !pos in
      let num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (advance (); Obj [])
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); fields ((k, v) :: acc)
              | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (advance (); Arr [])
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements (v :: acc)
              | Some ']' -> advance (); Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected %C" c)
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing bytes after value";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Result.Error msg
end

(* ---------------- protocol types ------------------------------------ *)

type op =
  | Validate
  | Fragment of string list
  | Neighborhood of { node : string; shape : string }
  | Update of { add : string; remove : string }
  | Health
  | Stats
  | Sleep of int

type request = {
  id : string option;
  op : op;
  timeout : float option;
  fuel : int option;
}

let request ?id ?timeout ?fuel op = { id; op; timeout; fuel }

type failure = Timeout | Fuel | Crash

let failure_of_outcome = function
  | Runtime.Outcome.Timed_out -> Timeout, "wall-clock deadline exceeded"
  | Runtime.Outcome.Fuel_exhausted -> Fuel, "evaluation-fuel bound exhausted"
  | Runtime.Outcome.Crashed msg -> Crash, msg

type jstats = {
  j_records : int;
  j_bytes : int;
  j_fsyncs : int;
  j_seq : int;
  j_dirty : int;
  j_rechecked : int;
}

type stats = {
  uptime : float;
  jobs : int;
  queue_bound : int;
  accepted : int;
  served : int;
  shed : int;
  failed : int;
  rejected : int;
  dropped : int;
  crashes : int;
  in_flight : int;
  queued : int;
  journal : jstats option;
}

type reply =
  | Validated of { conforms : bool; checks : int; violations : int }
  | Fragmented of { triples : int; turtle : string }
  | Neighborhoods of { conforms : bool; turtle : string }
  | Updated of {
      seq : int;
      added : int;
      removed : int;
      dirty : int;
      rechecked : int;
      conforms : bool;
    }
  | Healthy of { uptime : float }
  | Statistics of stats
  | Slept of int
  | Overloaded of { queued : int }
  | Failed of { reason : failure; detail : string }
  | Error of string

(* ---------------- field accessors ------------------------------------ *)

let field key = function
  | Json.Obj fields -> List.assoc_opt key fields
  | _ -> None

let string_field key json =
  match field key json with
  | Some (Json.Str s) -> Ok (Some s)
  | Some _ -> Result.Error (Printf.sprintf "field %S must be a string" key)
  | None -> Ok None

let number_field key json =
  match field key json with
  | Some (Json.Num f) -> Ok (Some f)
  | Some _ -> Result.Error (Printf.sprintf "field %S must be a number" key)
  | None -> Ok None

let int_field key json =
  match number_field key json with
  | Result.Error _ as e -> e
  | Ok None -> Ok None
  | Ok (Some f) ->
      if Float.is_integer f && Float.abs f <= 1e9 then Ok (Some (int_of_float f))
      else Result.Error (Printf.sprintf "field %S must be an integer" key)

let string_list_field key json =
  match field key json with
  | None -> Ok []
  | Some (Json.Arr l) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Str s :: rest -> go (s :: acc) rest
        | _ ->
            Result.Error
              (Printf.sprintf "field %S must be an array of strings" key)
      in
      go [] l
  | Some _ ->
      Result.Error (Printf.sprintf "field %S must be an array of strings" key)

let ( let* ) = Result.bind

(* ---------------- request codec -------------------------------------- *)

let op_name = function
  | Validate -> "validate"
  | Fragment _ -> "fragment"
  | Neighborhood _ -> "neighborhood"
  | Update _ -> "update"
  | Health -> "health"
  | Stats -> "stats"
  | Sleep _ -> "sleep"

let encode_request r =
  let open Json in
  let fields = [ "op", Str (op_name r.op) ] in
  let fields =
    match r.op with
    | Fragment shapes when shapes <> [] ->
        fields @ [ "shapes", Arr (List.map (fun s -> Str s) shapes) ]
    | Neighborhood { node; shape } ->
        fields @ [ "node", Str node; "shape", Str shape ]
    | Update { add; remove } ->
        let fields = if add = "" then fields else fields @ [ "add", Str add ] in
        if remove = "" then fields else fields @ [ "remove", Str remove ]
    | Sleep ms -> fields @ [ "ms", Num (float_of_int ms) ]
    | _ -> fields
  in
  let opt name v encode fields =
    match v with None -> fields | Some x -> fields @ [ name, encode x ]
  in
  Obj
    (fields
    |> opt "id" r.id (fun s -> Str s)
    |> opt "timeout" r.timeout (fun f -> Num f)
    |> opt "fuel" r.fuel (fun i -> Num (float_of_int i)))
  |> to_string

let decode_request line =
  let* json =
    match Json.of_string line with
    | Ok (Json.Obj _ as j) -> Ok j
    | Ok _ -> Result.Error "request must be a JSON object"
    | Result.Error msg -> Result.Error ("bad JSON: " ^ msg)
  in
  let* id = string_field "id" json in
  let* timeout = number_field "timeout" json in
  let* fuel = int_field "fuel" json in
  let* op_str = string_field "op" json in
  let* op =
    match op_str with
    | None -> Result.Error "missing \"op\""
    | Some "validate" -> Ok Validate
    | Some "fragment" ->
        let* shapes = string_list_field "shapes" json in
        Ok (Fragment shapes)
    | Some "neighborhood" -> (
        let* node = string_field "node" json in
        let* shape = string_field "shape" json in
        match node, shape with
        | Some node, Some shape -> Ok (Neighborhood { node; shape })
        | _ -> Result.Error "neighborhood requires \"node\" and \"shape\"")
    | Some "update" ->
        let* add = string_field "add" json in
        let* remove = string_field "remove" json in
        let add = Option.value add ~default:"" in
        let remove = Option.value remove ~default:"" in
        if add = "" && remove = "" then
          Result.Error "update requires \"add\" and/or \"remove\""
        else Ok (Update { add; remove })
    | Some "health" -> Ok Health
    | Some "stats" -> Ok Stats
    | Some "sleep" -> (
        let* ms = int_field "ms" json in
        match ms with
        | Some ms when ms >= 0 -> Ok (Sleep ms)
        | _ -> Result.Error "sleep requires a non-negative \"ms\"")
    | Some other -> Result.Error (Printf.sprintf "unknown op %S" other)
  in
  Ok { id; op; timeout; fuel }

(* ---------------- reply codec ---------------------------------------- *)

let failure_name = function
  | Timeout -> "timeout"
  | Fuel -> "fuel"
  | Crash -> "crash"

let failure_of_name = function
  | "timeout" -> Some Timeout
  | "fuel" -> Some Fuel
  | "crash" -> Some Crash
  | _ -> None

let stats_fields s =
  let open Json in
  [ "uptime", Num s.uptime;
    "jobs", Num (float_of_int s.jobs);
    "queue_bound", Num (float_of_int s.queue_bound);
    "accepted", Num (float_of_int s.accepted);
    "served", Num (float_of_int s.served);
    "shed", Num (float_of_int s.shed);
    "failed", Num (float_of_int s.failed);
    "rejected", Num (float_of_int s.rejected);
    "dropped", Num (float_of_int s.dropped);
    "crashes", Num (float_of_int s.crashes);
    "in_flight", Num (float_of_int s.in_flight);
    "queued", Num (float_of_int s.queued) ]
  @
  match s.journal with
  | None -> []
  | Some j ->
      [ "journal",
        Obj
          [ "records", Num (float_of_int j.j_records);
            "bytes", Num (float_of_int j.j_bytes);
            "fsyncs", Num (float_of_int j.j_fsyncs);
            "seq", Num (float_of_int j.j_seq);
            "dirty", Num (float_of_int j.j_dirty);
            "rechecked", Num (float_of_int j.j_rechecked) ] ]

let required what = function
  | Ok (Some v) -> Ok v
  | Ok None -> Result.Error (Printf.sprintf "reply is missing %S" what)
  | Result.Error _ as e -> e

let bool_field key json =
  match field key json with
  | Some (Json.Bool b) -> Ok b
  | _ -> Result.Error (Printf.sprintf "field %S must be a boolean" key)

let reply_fields reply =
  let open Json in
  match reply with
  | Validated { conforms; checks; violations } ->
      [ "status", Str "ok"; "op", Str "validate"; "conforms", Bool conforms;
        "checks", Num (float_of_int checks);
        "violations", Num (float_of_int violations) ]
  | Fragmented { triples; turtle } ->
      [ "status", Str "ok"; "op", Str "fragment";
        "triples", Num (float_of_int triples); "turtle", Str turtle ]
  | Neighborhoods { conforms; turtle } ->
      [ "status", Str "ok"; "op", Str "neighborhood";
        "conforms", Bool conforms; "turtle", Str turtle ]
  | Updated { seq; added; removed; dirty; rechecked; conforms } ->
      [ "status", Str "ok"; "op", Str "update";
        "seq", Num (float_of_int seq);
        "added", Num (float_of_int added);
        "removed", Num (float_of_int removed);
        "dirty", Num (float_of_int dirty);
        "rechecked", Num (float_of_int rechecked);
        "conforms", Bool conforms ]
  | Healthy { uptime } ->
      [ "status", Str "ok"; "op", Str "health"; "uptime", Num uptime ]
  | Statistics s -> [ "status", Str "ok"; "op", Str "stats" ] @ stats_fields s
  | Slept ms ->
      [ "status", Str "ok"; "op", Str "sleep"; "ms", Num (float_of_int ms) ]
  | Overloaded { queued } ->
      [ "status", Str "overloaded"; "queued", Num (float_of_int queued) ]
  | Failed { reason; detail } ->
      [ "status", Str "failed"; "reason", Str (failure_name reason);
        "detail", Str detail ]
  | Error message -> [ "status", Str "error"; "message", Str message ]

let encode_reply ?id reply =
  let fields = reply_fields reply in
  let fields =
    match id with None -> fields | Some id -> ("id", Json.Str id) :: fields
  in
  Json.to_string (Json.Obj fields)

(* The op-specific payload of an [ok] reply. *)
let decode_ok json =
  let* op = required "op" (string_field "op" json) in
  match op with
  | "validate" ->
      let* conforms = bool_field "conforms" json in
      let* checks = required "checks" (int_field "checks" json) in
      let* violations = required "violations" (int_field "violations" json) in
      Ok (Validated { conforms; checks; violations })
  | "fragment" ->
      let* triples = required "triples" (int_field "triples" json) in
      let* turtle = required "turtle" (string_field "turtle" json) in
      Ok (Fragmented { triples; turtle })
  | "neighborhood" ->
      let* conforms = bool_field "conforms" json in
      let* turtle = required "turtle" (string_field "turtle" json) in
      Ok (Neighborhoods { conforms; turtle })
  | "update" ->
      let num key = required key (int_field key json) in
      let* seq = num "seq" in
      let* added = num "added" in
      let* removed = num "removed" in
      let* dirty = num "dirty" in
      let* rechecked = num "rechecked" in
      let* conforms = bool_field "conforms" json in
      Ok (Updated { seq; added; removed; dirty; rechecked; conforms })
  | "health" ->
      let* uptime = required "uptime" (number_field "uptime" json) in
      Ok (Healthy { uptime })
  | "stats" ->
      let num key = required key (int_field key json) in
      let* uptime = required "uptime" (number_field "uptime" json) in
      let* jobs = num "jobs" in
      let* queue_bound = num "queue_bound" in
      let* accepted = num "accepted" in
      let* served = num "served" in
      let* shed = num "shed" in
      let* failed = num "failed" in
      let* rejected = num "rejected" in
      let* dropped = num "dropped" in
      let* crashes = num "crashes" in
      let* in_flight = num "in_flight" in
      let* queued = num "queued" in
      let* journal =
        match field "journal" json with
        | None -> Ok None
        | Some (Json.Obj _ as j) ->
            let jnum key = required ("journal " ^ key) (int_field key j) in
            let* j_records = jnum "records" in
            let* j_bytes = jnum "bytes" in
            let* j_fsyncs = jnum "fsyncs" in
            let* j_seq = jnum "seq" in
            let* j_dirty = jnum "dirty" in
            let* j_rechecked = jnum "rechecked" in
            Ok (Some { j_records; j_bytes; j_fsyncs; j_seq; j_dirty;
                       j_rechecked })
        | Some _ -> Result.Error "field \"journal\" must be an object"
      in
      Ok
        (Statistics
           { uptime; jobs; queue_bound; accepted; served; shed; failed;
             rejected; dropped; crashes; in_flight; queued; journal })
  | "sleep" ->
      let* ms = required "ms" (int_field "ms" json) in
      Ok (Slept ms)
  | other -> Result.Error (Printf.sprintf "unknown ok op %S" other)

let decode_reply line =
  let* json =
    match Json.of_string line with
    | Ok (Json.Obj _ as j) -> Ok j
    | Ok _ -> Result.Error "reply must be a JSON object"
    | Result.Error msg -> Result.Error ("bad JSON: " ^ msg)
  in
  let* id = string_field "id" json in
  let* status = required "status" (string_field "status" json) in
  let* reply =
    match status with
    | "ok" -> decode_ok json
    | "overloaded" ->
        let* queued = required "queued" (int_field "queued" json) in
        Ok (Overloaded { queued })
    | "failed" -> (
        let* reason = required "reason" (string_field "reason" json) in
        let* detail = required "detail" (string_field "detail" json) in
        match failure_of_name reason with
        | Some reason -> Ok (Failed { reason; detail })
        | None -> Result.Error (Printf.sprintf "unknown failure %S" reason))
    | "error" ->
        let* message = required "message" (string_field "message" json) in
        Ok (Error message)
    | other -> Result.Error (Printf.sprintf "unknown status %S" other)
  in
  Ok (id, reply)

(* ---------------- line-framed socket I/O ----------------------------- *)

(* The line and its newline leave in one write from one copy: a lone
   trailing "\n" segment could be held back by Nagle's algorithm. *)
let write_line fd s =
  let n = String.length s in
  let line = Bytes.create (n + 1) in
  Bytes.blit_string s 0 line 0 n;
  Bytes.set line n '\n';
  let written = ref 0 in
  while !written <= n do
    written := !written + Unix.write fd line !written (n + 1 - !written)
  done

let read_line ?(max = 16 * 1024 * 1024) ?deadline fd =
  (* The per-read socket timeout only bounds silence; a drip-feeding
     peer resets it with every byte.  The overall deadline caps the
     whole frame, so a slow-loris sender cannot pin a handler. *)
  let await () =
    match deadline with
    | None -> ()
    | Some d ->
        let left = d -. Unix.gettimeofday () in
        if left <= 0. then
          raise (Unix.Unix_error (Unix.ETIMEDOUT, "read_line", ""))
        else begin
          match Unix.select [ fd ] [] [] left with
          | [], _, _ ->
              raise (Unix.Unix_error (Unix.ETIMEDOUT, "read_line", ""))
          | _ -> ()
        end
  in
  let rec newline chunk i n =
    if i >= n then None
    else if Bytes.unsafe_get chunk i = '\n' then Some i
    else newline chunk (i + 1) n
  in
  (* The frame is the full chunks, newest first, and the [len] bytes
     of [chunk], copied once into a string of its exact length.  Each
     chunk is filled before the next is made, so what is held is at
     most the bytes received and one chunk. *)
  let concat full chunk len =
    let total = List.fold_left (fun t c -> t + Bytes.length c) len full in
    let line = Bytes.create total in
    Bytes.blit chunk 0 line (total - len) len;
    ignore
      (List.fold_left
         (fun stop c ->
           let k = Bytes.length c in
           Bytes.blit c 0 line (stop - k) k;
           stop - k)
         (total - len) full
        : int);
    Some (Bytes.unsafe_to_string line)
  in
  (* A short frame fits the first 4 KB chunk; a longer one continues in
     64 KB chunks. *)
  let rec go full chunk off total =
    if off = Bytes.length chunk then go (chunk :: full) (Bytes.create 65536) 0 total
    else begin
      await ();
      match Unix.read fd chunk off (Bytes.length chunk - off) with
      | 0 -> if total = 0 then None else concat full chunk off
      | n -> (
          match newline chunk off (off + n) with
          | Some i -> concat full chunk i
          | None ->
              let total = total + n in
              if total > max then failwith "wire frame too long"
              else go full chunk (off + n) total)
    end
  in
  go [] (Bytes.create 4096) 0 0
