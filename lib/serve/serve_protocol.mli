(** Wire protocol for [emask serve]: length-prefixed JSON frames, one
    request and one response per connection.

    A frame is a 4-byte big-endian length followed by that many bytes
    of JSON (capped at 64 MiB). The request codec interprets the
    parameter tables of {!Serve_jobs}, the single source the CLI flags
    are derived from too: the same keys, defaults and domains, so a
    request no CLI invocation could express, including one with a key
    its job does not take, raises {!Protocol_error} instead of being
    silently interpreted. *)

exception Protocol_error of string
(** Framing or codec failure. The server answers with a
    [status = "rejected"], [code = "PROTO001"] response where the
    connection still permits one. *)

val max_frame : int

val read_frame : Unix.file_descr -> string

val write_frame : Unix.file_descr -> string -> unit

type request =
  | Lint of Serve_jobs.circuit * Serve_jobs.lint_req
  | Spcf of Serve_jobs.circuit * Serve_jobs.spcf_req * Budget.spec
  | Paths of Serve_jobs.circuit * Serve_jobs.paths_req * Budget.spec
  | Protect of Serve_jobs.circuit * Serve_jobs.protect_req * Budget.spec
  | Eco of Serve_jobs.circuit * Serve_jobs.eco_req * Budget.spec
  | Ping of float
      (** hold a worker for that many seconds, polling its budget —
          the deterministic way to exercise queue saturation and
          disconnect cancellation *)
  | Metrics  (** the /metrics exposition as an [Ok_output] body *)
  | Shutdown  (** stop accepting, drain workers, exit *)

type response =
  | Ok_output of int * string  (** exit code, rendered output *)
  | Rejected of string * string  (** code, message — admission refusals *)
  | Error_resp of string * string  (** code, message — job failures *)

val parse_request : string -> request
val json_of_request : request -> Obs_json.t
val parse_response : string -> response
val json_of_response : response -> Obs_json.t

val send_request : Unix.file_descr -> request -> unit
val send_response : Unix.file_descr -> response -> unit
val recv_response : Unix.file_descr -> response
