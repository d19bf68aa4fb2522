(* What one benchmark run attempted, what failed, and what it measured. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* name, value, unit *)
  mutable info : (string * string) list;             (* name, JSON value *)
  lock : Mutex.t;
}

let create () =
  { attempted = 0; failed = 0; metrics = []; info = []; lock = Mutex.create () }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Count one operation; a failed one is reported on stderr. *)
let op t ok what =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      if not ok then begin
        t.failed <- t.failed + 1;
        if t.failed <= 10 then Printf.eprintf "perfbench: FAILED %s\n%!" what
      end)

let metric t name unit value = t.metrics <- (name, value, unit) :: t.metrics
let info t name json = t.info <- (name, json) :: t.info
let info_num t name v = info t name (Printf.sprintf "%.17g" v)
let info_int t name v = info t name (string_of_int v)
let info_str t name s = info t name (Printf.sprintf "%S" s)

let metrics t = List.rev t.metrics

(* The metrics as a JSON object; [%.17g] keeps every digit measured. *)
let json_metrics t =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
             unit)
         (metrics t))
  ^ "}"

let json_info t =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) (List.rev t.info))
  ^ "}"

let result_line t =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    (t.failed = 0) t.attempted t.failed (json_metrics t)
