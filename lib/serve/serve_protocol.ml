(* Wire protocol for [emask serve]: one request, one response, one
   connection.

   A frame is a 4-byte big-endian length prefix followed by that many
   bytes of JSON. The length cap is a denial-of-service guard, not a
   real circuit-size limit (a 64 MiB BLIF is well past what the
   analyses handle interactively anyway).

   Requests:
     {"job": "lint"|"spcf"|"paths"|"protect"|"eco"|"ping"|"metrics"
             |"shutdown",
      "circuit": NAME, "source": BLIF-TEXT?, ...job parameters...}

   Responses:
     {"status": "ok", "exit": N, "output": S}
     {"status": "rejected"|"error", "code": C, "message": M}

   The job parameters are not written down here: the request codec is
   an interpreter of the parameter tables in [Serve_jobs]
   ([lint_params] ... [eco_params], [budget_params]), the same tables
   the CLI flags are derived from. So a request key is its CLI flag
   with '_' for '-', a value is checked against the same domain with
   the same message, and a key its job does not take is rejected. Only
   eco's edit sequence ("edits", "edits_name") and ping's "delay" are
   hand-written. *)

exception Protocol_error of string

let max_frame = 64 * 1024 * 1024

(* --- framing ------------------------------------------------------------- *)

let really_read fd buf off len =
  let got = ref 0 in
  while !got < len do
    match Unix.read fd buf (off + !got) (len - !got) with
    | 0 -> raise (Protocol_error "connection closed mid-frame")
    | n -> got := !got + n
  done

let really_write fd buf off len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd buf (off + !sent) (len - !sent)
  done

let read_frame fd =
  let hdr = Bytes.create 4 in
  (match Unix.read fd hdr 0 4 with
  | 0 -> raise (Protocol_error "connection closed before frame")
  | n -> if n < 4 then really_read fd hdr n (4 - n));
  let len = Int32.to_int (Bytes.get_int32_be hdr 0) in
  if len < 0 || len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame length %d out of range" len));
  let body = Bytes.create len in
  really_read fd body 0 len;
  Bytes.unsafe_to_string body

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then
    raise (Protocol_error (Printf.sprintf "frame length %d out of range" len));
  let msg = Bytes.create (4 + len) in
  Bytes.set_int32_be msg 0 (Int32.of_int len);
  Bytes.blit_string payload 0 msg 4 len;
  really_write fd msg 0 (4 + len)

(* --- requests ------------------------------------------------------------ *)

type request =
  | Lint of Serve_jobs.circuit * Serve_jobs.lint_req
  | Spcf of Serve_jobs.circuit * Serve_jobs.spcf_req * Budget.spec
  | Paths of Serve_jobs.circuit * Serve_jobs.paths_req * Budget.spec
  | Protect of Serve_jobs.circuit * Serve_jobs.protect_req * Budget.spec
  | Eco of Serve_jobs.circuit * Serve_jobs.eco_req * Budget.spec
  | Ping of float  (** hold a worker for [delay] seconds, polling its budget *)
  | Metrics
  | Shutdown

let bad fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

let obj_string key j =
  match Obs_json.member key j with
  | Some (Obs_json.String s) -> Some s
  | Some _ -> bad "%S must be a string" key
  | None -> None

(* --- the parameter-table interpreters ------------------------------------- *)

let rec of_json : type a. a Serve_jobs.domain -> Obs_json.t -> a option =
 fun d v ->
  match (d, v) with
  | Serve_jobs.Unit_interval, Obs_json.Float f -> Some f
  | Serve_jobs.Unit_interval, Obs_json.Int i -> Some (float_of_int i)
  | Serve_jobs.Pos_float, Obs_json.Float f -> Some f
  | Serve_jobs.Pos_float, Obs_json.Int i -> Some (float_of_int i)
  | Serve_jobs.Pos_int, Obs_json.Int n -> Some n
  | Serve_jobs.Flag, Obs_json.Bool b -> Some b
  | Serve_jobs.Enum cases, Obs_json.String s -> List.assoc_opt s cases
  | Serve_jobs.Opt d, v -> Option.map Option.some (of_json d v)
  | _ -> None

(* [None] for an absent optional value: its key is left out. An enum
   value missing from its cases (no decoder produces one) raises
   [Not_found]. *)
let rec to_json : type a. a Serve_jobs.domain -> a -> Obs_json.t option =
 fun d v ->
  match d with
  | Serve_jobs.Unit_interval -> Some (Obs_json.Float v)
  | Serve_jobs.Pos_float -> Some (Obs_json.Float v)
  | Serve_jobs.Pos_int -> Some (Obs_json.Int v)
  | Serve_jobs.Flag -> Some (Obs_json.Bool v)
  | Serve_jobs.Enum cases ->
    Some (Obs_json.String (fst (List.find (fun (_, c) -> c = v) cases)))
  | Serve_jobs.Opt d -> Option.bind v (to_json d)

(* [member] looks a key up in the request object. *)
let rec decode : type r a. (r, a) Serve_jobs.params -> (string -> Obs_json.t option) -> a
    =
 fun t member ->
  match t with
  | Serve_jobs.Return f -> f
  | Serve_jobs.Field (t, p) -> (
    let f = decode t member in
    match member p.Serve_jobs.key with
    | None -> f p.Serve_jobs.default
    | Some v -> (
      match of_json p.Serve_jobs.domain v with
      | Some x when Serve_jobs.valid p.Serve_jobs.domain x -> f x
      | _ ->
        bad "%s"
          (Serve_jobs.out_of_domain
             ~what:(Printf.sprintf "%S" p.Serve_jobs.key)
             ~got:(Obs_json.to_string v) p.Serve_jobs.domain)))

let rec encode : type r a. (r, a) Serve_jobs.params -> r -> (string * Obs_json.t) list =
 fun t r ->
  match t with
  | Serve_jobs.Return _ -> []
  | Serve_jobs.Field (t, p) ->
    encode t r
    @
    match to_json p.Serve_jobs.domain (p.Serve_jobs.get r) with
    | Some v -> [ (p.Serve_jobs.key, v) ]
    | None -> []

(* --- requests ------------------------------------------------------------- *)

(* A job accepts exactly the keys its decoder looks up: [member]
   records every key asked for, and any other key in the object is
   rejected by name once decoding is done. *)
let request_of_json j =
  let asked = ref [ "job" ] in
  let member key =
    asked := key :: !asked;
    Obs_json.member key j
  in
  let string key =
    asked := key :: !asked;
    obj_string key j
  in
  let required key =
    match string key with Some s -> s | None -> bad "missing %S" key
  in
  let circuit () =
    let spec = required "circuit" in
    { Serve_jobs.spec; source = string "source" }
  in
  let budget () = decode Serve_jobs.budget_params member in
  let job = required "job" in
  let req =
    match job with
    | "lint" -> Lint (circuit (), decode Serve_jobs.lint_params member)
    | "spcf" -> Spcf (circuit (), decode Serve_jobs.spcf_params member, budget ())
    | "paths" -> Paths (circuit (), decode Serve_jobs.paths_params member, budget ())
    | "protect" ->
      Protect (circuit (), decode Serve_jobs.protect_params member, budget ())
    | "eco" ->
      let c = circuit () in
      let edits = required "edits" in
      let name = Option.value ~default:"<request>" (string "edits_name") in
      Eco (c, decode Serve_jobs.eco_params member name edits, budget ())
    | "ping" ->
      Ping
        (match member "delay" with
        | Some (Obs_json.Float d) -> Float.max 0. d
        | Some (Obs_json.Int d) -> Float.max 0. (float_of_int d)
        | Some _ -> bad "\"delay\" must be a number"
        | None -> 0.)
    | "metrics" -> Metrics
    | "shutdown" -> Shutdown
    | job -> bad "unknown job %S" job
  in
  (match j with
  | Obs_json.Obj fields ->
    List.iter
      (fun (k, _) ->
        if not (List.mem k !asked) then bad "unknown key %S in a %s request" k job)
      fields
  | _ -> ());
  req

let parse_request payload =
  match Obs_json.of_string payload with
  | Error e -> bad "request is not JSON: %s" e
  | Ok j -> request_of_json j

let json_of_request r =
  let open Obs_json in
  let job name (c : Serve_jobs.circuit) fields =
    let source =
      match c.Serve_jobs.source with Some s -> [ ("source", String s) ] | None -> []
    in
    Obj
      ((("job", String name) :: ("circuit", String c.Serve_jobs.spec) :: source) @ fields)
  in
  let budget b = encode Serve_jobs.budget_params b in
  match r with
  | Lint (c, l) -> job "lint" c (encode Serve_jobs.lint_params l)
  | Spcf (c, s, b) -> job "spcf" c (encode Serve_jobs.spcf_params s @ budget b)
  | Paths (c, p, b) -> job "paths" c (encode Serve_jobs.paths_params p @ budget b)
  | Protect (c, m, b) -> job "protect" c (encode Serve_jobs.protect_params m @ budget b)
  | Eco (c, e, b) ->
    job "eco" c
      ((("edits", String e.Serve_jobs.c_edits)
       :: ("edits_name", String e.Serve_jobs.c_edits_name)
       :: encode Serve_jobs.eco_params e)
      @ budget b)
  | Ping d -> Obj [ ("job", String "ping"); ("delay", Float d) ]
  | Metrics -> Obj [ ("job", String "metrics") ]
  | Shutdown -> Obj [ ("job", String "shutdown") ]

(* --- responses ----------------------------------------------------------- *)

type response =
  | Ok_output of int * string  (** exit code, rendered output *)
  | Rejected of string * string  (** code, message — admission refusals *)
  | Error_resp of string * string  (** code, message — job failures *)

let json_of_response =
  let open Obs_json in
  function
  | Ok_output (exit, output) ->
    Obj [ ("status", String "ok"); ("exit", Int exit); ("output", String output) ]
  | Rejected (code, message) ->
    Obj
      [
        ("status", String "rejected");
        ("code", String code);
        ("message", String message);
      ]
  | Error_resp (code, message) ->
    Obj
      [ ("status", String "error"); ("code", String code); ("message", String message) ]

let response_of_json j =
  match obj_string "status" j with
  | Some "ok" -> (
    match (Obs_json.member "exit" j, obj_string "output" j) with
    | Some (Obs_json.Int e), Some out -> Ok_output (e, out)
    | _ -> bad "malformed ok response")
  | Some (("rejected" | "error") as st) -> (
    match (obj_string "code" j, obj_string "message" j) with
    | Some c, Some m -> if st = "rejected" then Rejected (c, m) else Error_resp (c, m)
    | _ -> bad "malformed %s response" st)
  | _ -> bad "malformed response"

let parse_response payload =
  match Obs_json.of_string payload with
  | Error e -> bad "response is not JSON: %s" e
  | Ok j -> response_of_json j

let send fd v = write_frame fd (Obs_json.to_string v)
let send_response fd r = send fd (json_of_response r)
let send_request fd r = send fd (json_of_request r)
let recv_response fd = parse_response (read_frame fd)
