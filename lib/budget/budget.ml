(* Resource budgets. The representation keeps every hot-path check
   branch-cheap: [unlimited] is a single shared instance recognised by
   physical equality, deadlines are absolute floats ([infinity] = no
   deadline), quotas are ints ([max_int] = no quota), and the cancel
   flag is an [Atomic.t] so domain workers can observe a cooperative
   stop without locking. *)

type reason = Deadline | Nodes | Ops | Cancelled

exception Budget_exceeded of reason

let reason_to_string = function
  | Deadline -> "deadline"
  | Nodes -> "nodes"
  | Ops -> "ops"
  | Cancelled -> "cancelled"

(* An external cancellation flag: one atomic bool shared between a
   party that wants to stop work (a server noticing its client hung
   up) and every budget instance derived from a spec carrying it.
   Tripping the flag is observed by [tick]/[poll] exactly like an
   internal [cancel], but survives [renew] — a fallback tier retried
   after a quota wall must still stop when the requester is gone. *)
type flag = bool Atomic.t

let flag () = Atomic.make false
let trip f = Atomic.set f true
let tripped f = Atomic.get f

type spec = {
  timeout : float option;
  max_nodes : int option;
  max_ops : int option;
  cancel_with : flag option;
}

let no_limits =
  { timeout = None; max_nodes = None; max_ops = None; cancel_with = None }

(* A spec carrying only an external flag is *not* limit-free: callers
   branch to the ungoverned fast path on [is_no_limits], and that path
   never polls cancellation. *)
let is_no_limits s =
  s.timeout = None && s.max_nodes = None && s.max_ops = None && s.cancel_with = None

let cancelled_by f s = { s with cancel_with = Some f }

let merge a b =
  {
    timeout = (match a.timeout with Some _ -> a.timeout | None -> b.timeout);
    max_nodes = (match a.max_nodes with Some _ -> a.max_nodes | None -> b.max_nodes);
    max_ops = (match a.max_ops with Some _ -> a.max_ops | None -> b.max_ops);
    cancel_with =
      (match a.cancel_with with Some _ -> a.cancel_with | None -> b.cancel_with);
  }

let env_timeout = "EMASK_BUDGET_TIMEOUT"
let env_max_nodes = "EMASK_BUDGET_MAX_NODES"
let env_max_ops = "EMASK_BUDGET_MAX_OPS"

let read_env name parse describe =
  match Sys.getenv_opt name with
  | None -> None
  | Some raw -> (
    let s = String.trim raw in
    if s = "" then None
    else
      match parse s with
      | Some v -> Some v
      | None ->
        invalid_arg (Printf.sprintf "%s: expected %s, got %S" name describe raw))

let of_env () =
  let pos_float s =
    match float_of_string_opt s with
    | Some v when v > 0. && v < infinity -> Some v
    | _ -> None
  in
  let pos_int s =
    match int_of_string_opt s with Some v when v > 0 -> Some v | _ -> None
  in
  {
    timeout = read_env env_timeout pos_float "a positive number of seconds";
    max_nodes = read_env env_max_nodes pos_int "a positive integer";
    max_ops = read_env env_max_ops pos_int "a positive integer";
    cancel_with = None;
  }

type t = {
  deadline : float; (* absolute Obs.now time; infinity = none *)
  node_quota : int; (* max_int = none *)
  op_quota : int; (* max_int = none *)
  mutable ops : int;
  cancel_flag : bool Atomic.t;
  pinned_cancel : bool;
      (* the flag is externally owned (spec.cancel_with): [renew] must
         keep it instead of allocating a fresh one *)
}

let unlimited =
  {
    deadline = infinity;
    node_quota = max_int;
    op_quota = max_int;
    ops = 0;
    cancel_flag = Atomic.make false;
    pinned_cancel = false;
  }

(* Instrumentation: every raise is counted, overall and per reason, so
   a --stats run shows exactly which wall was hit. *)
let c_exceeded = Obs.counter "budget.exceeded"
let c_deadline = Obs.counter "budget.exceeded.deadline"
let c_nodes = Obs.counter "budget.exceeded.nodes"
let c_ops = Obs.counter "budget.exceeded.ops"
let c_cancelled = Obs.counter "budget.exceeded.cancelled"

let exceed reason =
  Obs.incr c_exceeded;
  Obs.incr
    (match reason with
    | Deadline -> c_deadline
    | Nodes -> c_nodes
    | Ops -> c_ops
    | Cancelled -> c_cancelled);
  Obs.instant ("budget.exceeded." ^ reason_to_string reason);
  raise (Budget_exceeded reason)

let instantiate spec =
  if is_no_limits spec then unlimited
  else begin
    (* A governed run that hits no wall must still be distinguishable
       from an ungoverned one: registering the zeros up front puts
       "budget.exceeded* = 0" in every --stats / ledger / Prometheus
       view of a budgeted run. *)
    Obs.touch_counter c_exceeded;
    Obs.touch_counter c_deadline;
    Obs.touch_counter c_nodes;
    Obs.touch_counter c_ops;
    Obs.touch_counter c_cancelled;
    {
      deadline =
        (match spec.timeout with None -> infinity | Some s -> Obs.now () +. s);
      node_quota = (match spec.max_nodes with None -> max_int | Some n -> n);
      op_quota = (match spec.max_ops with None -> max_int | Some n -> n);
      ops = 0;
      cancel_flag =
        (match spec.cancel_with with Some f -> f | None -> Atomic.make false);
      pinned_cancel = spec.cancel_with <> None;
    }
  end

let create ?timeout ?max_nodes ?max_ops () =
  instantiate { timeout; max_nodes; max_ops; cancel_with = None }

let renew t =
  if t == unlimited then unlimited
  else
    {
      t with
      ops = 0;
      cancel_flag = (if t.pinned_cancel then t.cancel_flag else Atomic.make false);
    }

let for_worker t = if t == unlimited then unlimited else { t with ops = 0 }

let spec_of t =
  if t == unlimited then no_limits
  else
    {
      timeout =
        (if t.deadline = infinity then None
         else Some (Float.max 1e-6 (t.deadline -. Obs.now ())));
      max_nodes = (if t.node_quota = max_int then None else Some t.node_quota);
      max_ops = (if t.op_quota = max_int then None else Some t.op_quota);
      cancel_with = (if t.pinned_cancel then Some t.cancel_flag else None);
    }

let cancel t = if t != unlimited then Atomic.set t.cancel_flag true
let cancelled t = t != unlimited && Atomic.get t.cancel_flag

let exhausted t =
  if t == unlimited then None
  else if Atomic.get t.cancel_flag then Some Cancelled
  else if Obs.now () > t.deadline then Some Deadline
  else if t.ops > t.op_quota then Some Ops
  else None

let max_nodes t = t.node_quota

let check_nodes t n =
  if t != unlimited && n > t.node_quota then exceed Nodes

(* An explicit cancellation/deadline checkpoint for coarse work-unit
   boundaries (one SPCF output, one fuzz specimen): unlike [tick] it is
   not amortized, so a worker observes a team-mate's cancel before
   starting its next unit even when its own op counter is cold. *)
let poll t =
  if t != unlimited then begin
    if Atomic.get t.cancel_flag then exceed Cancelled;
    if Obs.now () > t.deadline then exceed Deadline
  end

(* Amortized polling: cancellation every 256 ticks, the clock every
   1024 — cheap enough for the ite hot path, responsive enough that a
   deadline or a cancel is observed within microseconds of real work. *)
let tick t =
  if t != unlimited then begin
    let ops = t.ops + 1 in
    t.ops <- ops;
    if ops > t.op_quota then exceed Ops;
    if ops land 255 = 0 then begin
      if Atomic.get t.cancel_flag then exceed Cancelled;
      if ops land 1023 = 0 && Obs.now () > t.deadline then exceed Deadline
    end
  end
