(* A child [emask serve] on a private Unix socket, and what /proc says
   about a process.

   Every daemon this module starts is registered until it is stopped,
   and an [at_exit] hook stops whatever is left, so an exception or a
   failed check still ends with a [shutdown] request and, if the daemon
   does not exit within [grace] seconds, a kill. SIGINT and SIGTERM
   exit through the same hook, promptly (see below). *)

type t = {
  pid : int;
  dir : string;
  endpoint : Serve_client.endpoint;
  mutable stopped : bool;
}

let live : t list ref = ref []
let grace = 5.

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec waitpid_noeintr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr flags pid

(* Ask for a shutdown, waiting at most a second each to send and to
   hear back: a daemon busy with a long job answers late or never, and
   the kill below is the fallback. *)
let request_shutdown t =
  try
    let fd = Serve_client.connect t.endpoint in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.;
        Serve_protocol.send_request fd Serve_protocol.Shutdown;
        ignore (Serve_protocol.recv_response fd))
  with _ -> ()

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    live := List.filter (fun d -> d != t) !live;
    request_shutdown t;
    let deadline = Obs.now () +. grace in
    let rec wait () =
      match waitpid_noeintr [ Unix.WNOHANG ] t.pid with
      | 0, _ when Obs.now () < deadline ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_noeintr [] t.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    try rm_rf t.dir with Sys_error _ | Unix.Unix_error _ -> ()
  end

let stop_all () = List.iter stop !live

(* SIGINT and SIGTERM are blocked in every thread and taken by one
   thread waiting for them: an OCaml handler would only run once some
   thread returned from a blocking call, which a client waiting on a
   long job may not do for minutes. *)
let () =
  at_exit stop_all;
  let signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals);
  ignore
    (Thread.create
       (fun () ->
         ignore (Thread.wait_signal signals);
         exit 130)
       ())

let counter = ref 0

(* A fresh private directory under [root]. The socket path is kept
   relative (daemon and benchmark share a working directory), so it
   stays under the 108-byte sun_path limit wherever the checkout is. *)
let fresh_dir root =
  incr counter;
  let dir = Filename.concat root (Printf.sprintf "daemon-%d-%d" (Unix.getpid ()) !counter) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Start the daemon and wait until it prints its "listening" line.
   Returns it with the spawn-to-listening time in seconds. *)
let start ~emask ~root ~workers =
  let dir = fresh_dir root in
  let sock = Filename.concat dir "emask.sock" in
  let log = Filename.concat dir "stdout" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Obs.now () in
  let pid =
    Unix.create_process emask
      [| emask; "serve"; "--socket"; sock; "--jobs"; string_of_int workers |]
      null out null
  in
  Unix.close out;
  Unix.close null;
  let t = { pid; dir; endpoint = Serve_client.Unix_sock sock; stopped = false } in
  live := t :: !live;
  let deadline = t0 +. 30. in
  let rec wait () =
    let text = try read_file log with Sys_error _ -> "" in
    if String.length text >= 10 && String.sub text 0 10 = "listening " then
      Obs.now () -. t0
    else
      match waitpid_noeintr [ Unix.WNOHANG ] pid with
      | 0, _ when Obs.now () < deadline ->
        Unix.sleepf 0.0005;
        wait ()
      | 0, _ ->
        stop t;
        failwith "emask serve did not start listening within 30 s"
      | _ ->
        t.stopped <- true;
        live := List.filter (fun d -> d != t) !live;
        rm_rf dir;
        failwith "emask serve exited before listening"
  in
  let ready = wait () in
  (t, ready)

(* --- /proc ---------------------------------------------------------------- *)

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let rss_peak_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)

(* A /metrics scrape over the job protocol, as (name, value) pairs. *)
let scrape t =
  match Serve_client.roundtrip t.endpoint Serve_protocol.Metrics with
  | Serve_protocol.Ok_output (_, body) ->
    String.split_on_char '\n' body
    |> List.filter_map (fun l ->
           if l = "" || l.[0] = '#' then None
           else
             match String.split_on_char ' ' l with
             | [ name; v ] -> Option.map (fun v -> (name, v)) (float_of_string_opt v)
             | _ -> None)
  | _ -> failwith "metrics scrape refused"

