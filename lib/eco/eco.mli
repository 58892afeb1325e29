(** Incremental/ECO recompute over mapped circuits.

    Production timing flows re-analyze after small engineering-change
    orders, not from scratch. This layer keeps an editable cell-level
    {!design} (append-only gate slots with stable ids), applies edits,
    computes the dirty transitive-fanout cone of each edit, and
    re-derives only the affected arrival times, SPCFs, sensitization
    verdicts and masking covers — everything outside the cone is reused
    verbatim from a retained {!t} snapshot. Full recompute and
    incremental recompute are function-identical: the {!canonical}
    rendering (SPCF DAGs via the {!Bdd.export} postorder encoding,
    covers, verdict kinds) is byte-equal, which the [eco-equal] fuzz
    oracle enforces. See DESIGN.md §15. *)

(** {1 Editable designs} *)

type gate = {
  gname : string;
  cell : Cell.t;
  fanins : int array;  (** design signals; each a PI or an earlier slot *)
}

type design = {
  pi_names : string array;
  gates : gate option array;
      (** slot [i] drives design signal [npi + i]; [None] = removed.
          Slots are append-only so design signals are stable across
          edits. *)
  outputs : (string * int) list;  (** declaration order *)
}

val num_pis : design -> int
val num_signals : design -> int
val live : design -> int -> bool
(** PIs and occupied gate slots. *)

val signal_name : design -> int -> string
val find_signal : design -> string -> int option

val gate_of : design -> int -> gate option
(** The gate occupying a slot signal ([None] for PIs and dead slots). *)

val live_gates : design -> int
(** Occupied gate slots. *)

val design_of_mapped : Mapped.t -> design
(** Raises [Invalid_argument] if some internal node carries no library
    cell (unmapped circuits cannot be edited). *)

val lower : design -> Mapped.t * int array
(** Deterministic lowering: PIs in order, live slots in slot order,
    outputs in declaration order. Also returns the design-signal →
    network-signal map (-1 for dead slots). *)

(** {1 Edits} *)

type edit =
  | Replace of { target : int; cell : Cell.t; fanins : int array }
      (** swap the cell and fanins of a live slot *)
  | Rewire of { target : int; pin : int; fanin : int }
      (** redirect one fanin pin of a live slot *)
  | Add of { aname : string; cell : Cell.t; fanins : int array }
      (** append a fresh slot (initially dead until consumed) *)
  | Remove of { target : int }
      (** drop a slot; consumers and outputs are rewired to its first
          fanin *)
  | Add_output of { oname : string; target : int }
  | Drop_output of { oname : string }
      (** the last output cannot be dropped *)

type applied = {
  next : design;
  seeds : int list;
      (** design signals whose local function or defining gate changed *)
  load_seeds : int list;
      (** design signals whose capacitive load changed (dirty only
          under [Sta.Library_load], where delay depends on load) *)
}

val apply : design -> edit -> applied
(** Validates the edit (live targets, matching arity, fanins restricted
    to PIs or earlier slots so slot order stays topological, fresh
    names) and raises [Invalid_argument] with a one-line diagnostic
    otherwise. *)

val apply_all : design -> edit list -> design * int list * int list
(** Folds {!apply}; returns the final design and the unioned seed sets,
    filtered to signals still live at the end. *)

val dirty_cone : design -> model:Sta.delay_model -> int list -> int list -> bool array
(** Transitive fanout closure (seeds included) of the structural seeds —
    plus the load seeds under [Library_load] — in the edited design,
    indexed by design signal. Everything outside is reusable: its
    global function, gate delay and arrival time are unchanged. *)

(** {1 Edit-list text format} *)

val parse_edits : design -> string -> edit list
(** One edit per line, names resolved against the evolving design;
    blank lines and [#] comments are skipped. Raises [Invalid_argument]
    on malformed input (line number included).
    {v
    replace TARGET CELL FANIN...
    rewire TARGET PIN FANIN
    add NAME CELL FANIN...
    remove TARGET
    add-output NAME TARGET
    drop-output NAME
    v} *)

val edit_to_string : design -> edit -> string
(** The {!parse_edits} line for an edit, valid in the given design
    (i.e. the design the edit applies to). *)

val edits_to_string : design -> edit list -> string

(** {1 Snapshots} *)

type stats = {
  total_signals : int;
  dirty_signals : int;  (** 0 for a fresh snapshot's baseline *)
  funcs_reused : int;
  funcs_rebuilt : int;
  sigmas_reused : int;
  sigmas_recomputed : int;
  delta_changed : bool;
}

type t = {
  design : design;
  circuit : Mapped.t;
  sig_of : int array;  (** design signal → network signal, -1 if dead *)
  ctx : Spcf.Ctx.t;
  theta : float;
  band : float option;  (** sensitization analysis enabled when set *)
  delta : float;
  target : float;  (** [theta *. delta] *)
  sigmas : (string * Network.signal * Bdd.t) list;
      (** per critical output, critical-output order *)
  covers : (string * Logic2.Cover.t) list;
      (** deterministic masking cover per critical output *)
  sens : Sensitization.report option;
  stats : stats;
}

val snapshot :
  ?theta:float ->
  ?model:Sta.delay_model ->
  ?band:float ->
  ?jobs:int ->
  ?budget:Budget.t ->
  design ->
  t
(** Full analysis from scratch ([theta] defaults to [0.9], [model] to
    [Library], sensitization runs only when [band] is given). [jobs] is
    accepted for compatibility and ignored: the analysis runs on the
    calling domain. Can raise [Budget.Budget_exceeded]. *)

val recompute : t -> edit list -> t
(** Apply the edits and re-derive only the dirty cone: clean signals
    keep their BDD handle from the snapshot's manager, clean critical
    outputs keep their Σ handle, cover and sensitization verdicts
    verbatim. A Δ change (the critical-path delay moved) invalidates
    the target, so every Σ is recomputed — node functions are still
    reused. Function-identical to
    [snapshot (apply_all t.design edits)]. *)

(** {1 Canonical form and persistence} *)

val canonical : t -> string
(** Deterministic rendering of everything the analysis derived: model,
    θ, Δ, target, per-output arrivals ([%h]), per-critical-output SPCF
    postorder DAGs, masking covers, and sensitization verdict kinds
    with summaries. Witness patterns are excluded — they may legally
    differ between full and incremental runs (DPLL decision order
    follows internal ids). Equal canonical forms ⇒ the analyses agree
    on every function, delay and verdict. *)

val fingerprint : t -> string
(** Hex digest of {!canonical}. *)

val serialize : t -> string
(** The ["emask-eco/1"] snapshot format: design, parameters, Δ, and
    each critical output's SPCF as a {!Bdd.export} postorder DAG plus
    its cover. Floats are printed with [%h] (lossless round-trip). *)

val deserialize : string -> t
(** Rebuilds the context (fresh manager), imports the SPCF DAGs,
    and integrity-checks Δ against a fresh STA pass; sensitization is
    re-derived when a band was recorded (verdicts are a pure function
    of the circuit). Raises [Invalid_argument] on malformed or
    inconsistent input. *)

(** {1 Bench/fuzz helpers} *)

val smallest_cone_edit : design -> edit option
(** A minimal-impact 1-gate edit: among live gates with the smallest
    transitive-fanout cone, prefer swapping the cell for its
    equal-delay dual (EO↔EN, AOI21↔OAI21, AOI22↔OAI22), else replace a
    multi-input gate with its own cell on reversed fanins. [None] only
    when no gate admits either edit. *)
