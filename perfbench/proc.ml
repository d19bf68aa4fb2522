(* Driving the built shaclprov binary: CLI processes and serve
   processes, each waited for before the benchmark exits. *)

let now = Unix.gettimeofday

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

let exit_code = function
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s

let spawn ~stdout_file argv =
  let fd =
    Unix.openfile stdout_file [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd; Unix.close devnull)
    (fun () ->
      Unix.create_process argv.(0) argv devnull fd devnull)

(* Run one CLI process to completion: its exit code and wall time. *)
let run_cli ~stdout_file argv =
  let t0 = now () in
  let pid = spawn ~stdout_file argv in
  let status = waitpid_noeintr pid in
  (exit_code status, now () -. t0)

(* A running [shaclprov serve]. *)
type server = { pid : int; port : int; log : string }

(* Servers started and not yet reaped, so an aborted run can still stop
   every process it started. *)
let live = ref []
let reaped pid = live := List.filter (( <> ) pid) !live

let read_port path =
  match Inputs.read_file path with
  | s -> int_of_string_opt (String.trim s)
  | exception Sys_error _ -> None

(* Spawn [serve] and wait until it publishes its port: the set-up time
   a user waits for.  Fails if the process exits or stays silent for
   [timeout] seconds. *)
let start_server ?(timeout = 120.0) ~bin ~dir ~tag args =
  let port_file = Filename.concat dir (tag ^ ".port") in
  let log = Filename.concat dir (tag ^ ".log") in
  (try Sys.remove port_file with Sys_error _ -> ());
  let argv =
    Array.of_list
      ([ bin; "serve" ] @ args @ [ "--port"; "0"; "--port-file"; port_file ])
  in
  let t0 = now () in
  let pid = spawn ~stdout_file:log argv in
  live := pid :: !live;
  let rec await () =
    match read_port port_file with
    | Some port -> port
    | None -> (
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when now () -. t0 < timeout ->
            Unix.sleepf 0.002;
            await ()
        | 0, _ -> failwith (tag ^ ": serve did not come up")
        | _ ->
            reaped pid;
            failwith (tag ^ ": serve exited during start-up, see " ^ log))
  in
  let port = await () in
  ({ pid; port; log }, now () -. t0)

(* Peak resident set of a live process, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  (* procfs files report no length, so read to the end instead *)
  let line =
    In_channel.with_open_text path (fun ic ->
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (In_channel.input_all ic |> String.split_on_char '\n'))
  in
  match line with
  | None -> nan
  | Some l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)

let signal_and_reap signal pid =
  (try Unix.kill pid signal with Unix.Unix_error _ -> ());
  let status = waitpid_noeintr pid in
  reaped pid;
  status

let contains text sub =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length text && (String.sub text i n = sub || from (i + 1))
  in
  from 0

(* [serve] publishes its port file before it installs its SIGTERM
   handler, so a SIGTERM right after the port file appears kills it
   undrained.  It prints its "listening" line just before installing the
   handler: wait for that line, then a little longer. *)
let await_handlers s =
  let deadline = now () +. 10.0 in
  let rec go () =
    let log = try Inputs.read_file s.log with Sys_error _ -> "" in
    if (not (contains log "listening on")) && now () < deadline then begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ();
  Unix.sleepf 0.01

(* Graceful stop (SIGTERM drains); [true] when it exited 0. *)
let stop_server s =
  await_handlers s;
  exit_code (signal_and_reap Sys.sigterm s.pid) = 0

let kill_server s = ignore (signal_and_reap Sys.sigkill s.pid)
let kill_all () = List.iter (fun pid -> ignore (signal_and_reap Sys.sigkill pid)) !live

(* One client round trip; the reply (or error) and its latency. *)
let round_trip port op =
  let t0 = now () in
  let r =
    Service.Client.round_trip ~timeout:120.0 ~host:"127.0.0.1" ~port
      (Service.Wire.request op)
  in
  (r, now () -. t0)

(* Seconds the hypervisor took from this machine's CPUs (the [steal]
   column of /proc/stat), summed over CPUs; 0 where it is not reported. *)
let steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          float_of_string steal /. 100.0
      | _ -> 0.0)
  | None | (exception Sys_error _) -> 0.0

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()
