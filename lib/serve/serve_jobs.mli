(** Shared job runners for the one-shot CLI and the [emask serve]
    daemon.

    Each [run_*] function is the body of the corresponding [emask]
    subcommand, rendering into a caller-supplied buffer and returning
    the exit code. Both frontends delegate here, so a served response
    is byte-identical to the one-shot CLI for the same inputs by
    construction. Runners never touch process-global state: ledger
    facts go through [note], circuits come from [lookup], and failures
    raise (the CLI maps them to stderr + exit 2 via its [guarded]
    wrapper, the server to a per-request error response). *)

type circuit = { spec : string; source : string option }
(** What to analyze. [spec] is the display name — the CLI's CIRCUIT
    argument — and [source] the BLIF text when the circuit came from a
    file ([emask client] reads the file and ships its text, so the
    daemon never needs the client's filesystem). [None] means [spec]
    names a built-in suite circuit. *)

type entry = {
  e_spec : string;
  e_source : string option;
  e_src : Blif.source option;  (** parsed raw source for inline circuits *)
  e_net : Network.t;
  e_mc : Mapped.t Lazy.t;  (** mapping is deferred; forced under the "map" span *)
}
(** A loaded circuit: the unit of caching in the server's LRU. *)

type lookup = circuit -> entry
(** How runners obtain a loaded circuit: [load_entry] composed with
    whatever memoization the frontend provides. *)

type note = (string -> Obs_json.t -> unit) option
(** Ledger-fact sink; [None] when no ledger is configured (runners
    then skip the digest work, like the one-shot CLI). *)

val load_entry : circuit -> entry
(** Parse / suite-load under the "load" span, with the cheap error-only
    preflight gate — raises {!Analysis.Lint.Gate_failed} on a bad
    circuit. *)

val note_circuit : note -> string -> Network.t -> unit
(** Note the circuit name and content digest (skipped when [note] is
    [None]). *)

val note_run : note -> theta:float -> jobs:int -> unit
(** Note the request's theta and [jobs]. The [*_jobs] request fields
    below carry the caller's [--jobs] only to be echoed (here and in
    eco JSON): every job runs on one domain. *)

val report_synthesis_degradation : Buffer.t -> Masking.Synthesis.t -> unit
(** The "budget: degraded to ..." line, also needed by CLI commands
    that synthesize outside these runners ([emask wearout]). *)

(** {1 Job parameters}

    Each job's parameters are described once, in one table per job
    (plus {!budget_params}). The wire codec ({!Serve_protocol}) and
    the one-shot and client CLI terms are interpreters of these
    tables. *)

(** The values a parameter accepts. [Opt d] is absent by default and
    otherwise lies in [d]. *)
type _ domain =
  | Unit_interval : float domain  (** (0, 1] *)
  | Pos_int : int domain
  | Pos_float : float domain  (** finite and positive *)
  | Flag : bool domain
  | Enum : (string * 'a) list -> 'a domain
  | Opt : 'a domain -> 'a option domain

val valid : 'a domain -> 'a -> bool

val out_of_domain : what:string -> got:string -> 'a domain -> string
(** The one-line diagnostic for a value outside the domain: WHAT, the
    domain's phrase, then ", got GOT". Each phrase is written once,
    here, for the CLI and the wire alike. *)

type ('r, 'a) param = {
  key : string;  (** the wire key; the CLI flag is it with '-' for '_' *)
  aliases : string list;  (** further CLI names, e.g. ["j"] *)
  docv : string;
  doc : string;  (** cmdliner markup *)
  domain : 'a domain;
  default : 'a;  (** the value when the flag or key is absent *)
  get : 'r -> 'a;  (** read it back from the request record ['r] *)
}

(** A job's parameter table: [Return f +> p1 +> ... +> pn] applies
    [f] to the values of [p1 ... pn]. The order is the wire order. *)
type ('r, 'a) params =
  | Return : 'a -> ('r, 'a) params
  | Field : ('r, 'b -> 'a) params * ('r, 'b) param -> ('r, 'a) params

val budget_params : (Budget.spec, Budget.spec) params
(** [timeout] and [max_nodes]; the other fields are [None]. *)

type lint_req = {
  l_fail_on : Analysis.Diag.severity;
  l_json : bool;
  l_contract : bool;
  l_theta : float;
  l_jobs : int;
}

val lint_params : (lint_req, lint_req) params

val run_lint : note:note -> Buffer.t -> circuit -> lint_req -> int
(** Lint does its own raw-source staging (diagnosing circuits the
    loader would reject is its job), so it takes the circuit directly
    rather than a [lookup]. *)

type spcf_req = {
  s_theta : float;
  s_algorithm : Spcf.Governed.algorithm;
  s_jobs : int;
}

val spcf_params : (spcf_req, spcf_req) params

val run_spcf :
  note:note -> Buffer.t -> lookup -> circuit -> spcf_req -> Budget.spec -> int

type paths_req = {
  p_band : float;
  p_max_paths : int;
  p_jobs : int;
  p_json : bool;
  p_fail_on : Analysis.Diag.severity;
}

val paths_params : (paths_req, paths_req) params

val run_paths :
  note:note -> Buffer.t -> lookup -> circuit -> paths_req -> Budget.spec -> int

type protect_req = { m_theta : float; m_jobs : int; m_prune : bool }

val protect_params : (protect_req, protect_req) params

val run_protect :
  note:note ->
  ?out:string ->
  Buffer.t ->
  lookup ->
  circuit ->
  protect_req ->
  Budget.spec ->
  int
(** [?out] writes the combined circuit as BLIF — a CLI-only affordance
    (the daemon never writes client files). *)

type eco_req = {
  c_edits_name : string;  (** display name (the CLI's --edits path) *)
  c_edits : string;  (** edit-sequence text *)
  c_theta : float;
  c_band : float option;
  c_jobs : int;
  c_json : bool;
  c_check : bool;
}

val eco_params : (eco_req, string -> string -> eco_req) params
(** Everything but the edit sequence, which the table leaves as the
    last two arguments, [c_edits_name] then [c_edits]: the CLI's one
    [--edits FILE] carries both wire keys. *)

type snapshot_for =
  theta:float -> band:float option -> jobs:int -> budget:Budget.t -> Eco.design -> Eco.t
(** The baseline snapshot is the expensive, circuit-pure half of an
    eco job; the server memoizes it per (circuit, theta, band) through
    this hook. *)

val run_eco :
  note:note ->
  ?snapshot_for:snapshot_for ->
  Buffer.t ->
  lookup ->
  circuit ->
  eco_req ->
  Budget.spec ->
  int

val error_code : exn -> (string * string) option
(** The shared exception classification: [Some (code, message)] for
    the failures both frontends surface as "error CODE: MESSAGE"
    (parse, I/O, argument, budget), [None] for everything else.
    {!Analysis.Lint.Gate_failed} keeps its own codeless CLI rendering
    and is deliberately not listed. *)
