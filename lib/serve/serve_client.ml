(* Client-side plumbing for [emask client]: connect, ship one request,
   read one response.

   The client owns the filesystem boundary: a CIRCUIT argument that
   names a readable file is read here and shipped as inline text (with
   the path kept as the display name, so served output prints the same
   "circuit: PATH" line the one-shot CLI does); anything else is
   passed through as a suite-circuit name for the daemon to resolve. *)

type endpoint = Unix_sock of string | Tcp of string * int

let name = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let connect endpoint =
  let fd, addr =
    match endpoint with
    | Unix_sock path -> (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let addr =
        try
          (List.hd
             (Unix.getaddrinfo host (string_of_int port)
                [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]))
            .Unix.ai_addr
        with Failure _ -> Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
      in
      (Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0, addr)
  in
  (try Unix.connect fd addr
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise
       (Sys_error
          (Printf.sprintf "cannot connect to %s: %s" (name endpoint)
             (Unix.error_message e))));
  fd

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The CIRCUIT argument, client-side: file contents travel with the
   request; suite names travel as names. *)
let circuit_of_spec spec =
  if Sys.file_exists spec then
    { Serve_jobs.spec; source = Some (read_file spec) }
  else { Serve_jobs.spec; source = None }

(* One round trip. The caller still owns rendering the response. A
   daemon that goes away mid-exchange is an I/O failure like one that
   cannot be reached: SIGPIPE is ignored, so a write to a closed socket
   is an EPIPE error rather than a silent death, and every socket or
   framing failure becomes a [Sys_error] naming the endpoint. *)
let roundtrip endpoint req =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = connect endpoint in
  let failed msg =
    raise (Sys_error (Printf.sprintf "request to %s failed: %s" (name endpoint) msg))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        Serve_protocol.send_request fd req;
        Serve_protocol.recv_response fd
      with
      | Unix.Unix_error (e, _, _) -> failed (Unix.error_message e)
      | Serve_protocol.Protocol_error msg -> failed msg)
