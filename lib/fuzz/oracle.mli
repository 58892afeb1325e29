(** The differential-oracle catalogue.

    Each oracle checks one of the repository's cross-implementation
    invariants on a single specimen network and reports {!Pass},
    {!Fail} (with a message naming the disagreement), or {!Skip} (the
    specimen is outside the oracle's applicability envelope, e.g. too
    large for exhaustive comparison). Any exception escaping an
    oracle's body is converted to {!Fail} by {!run} — a crash on a
    well-formed specimen is a finding, not an infrastructure error.

    Catalogue (names are stable CLI identifiers):

    - [spcf-equal] — the paper's Table-1 invariant: the proposed
      short-path SPCF and the path-based extension produce identical
      per-output Σ_y, and the node-based over-approximation contains
      each of them. Checked at
      θ = 0.9 and at near-zero slack (θ = 0.995).
    - [bdd-sim] — global BDDs vs bit-parallel simulation vs scalar
      evaluation, exhaustive over all input patterns (specimens are
      capped at 8 inputs, so 256 patterns).
    - [tsim-sta] — event-driven timing simulation vs STA bounds:
      settle times never exceed arrivals, sampling at the critical
      path delay captures settled values, and the settled values match
      zero-delay evaluation.
    - [pattern-arrival] — the exact floating-mode reference semantics:
      per-pattern stabilization values match evaluation, per-pattern
      arrivals respect the structural bound, and (exhaustively, when
      feasible) the floating delay equals the max per-pattern arrival.
    - [masking] — end-to-end synthesis: the masked circuit is
      equivalent, Σ ⊆ e ⊆ (ỹ = y), and the masking-contract lints
      (mux shape, non-intrusiveness, indicator soundness) are clean.
    - [blif-roundtrip] — parse → print → parse: equivalence is
      preserved and printing reaches a fixpoint after one round.
    - [eco-equal] — incremental ECO recompute vs full recompute: after
      a random edit sequence, [Eco.recompute] must render the same {!Eco.canonical} form (SPCF DAGs, covers,
      verdict kinds) as a from-scratch [Eco.snapshot] of the edited
      design. *)

type outcome = Pass | Fail of string | Skip of string

type t = {
  name : string;  (** stable CLI identifier *)
  describe : string;  (** one-line catalogue entry *)
  check : rng:Util.Rng.t -> budget:Budget.t -> Network.t -> outcome;
      (** the raw body; prefer {!run}, which converts exceptions *)
}

val all : t list
val names : string list

val find : string -> t option
(** Lookup by [name]. *)

val run : t -> rng:Util.Rng.t -> ?budget:Budget.t -> Network.t -> outcome
(** [check] with every escaping exception converted to [Fail] — except
    [Budget.Budget_exceeded], which becomes [Skip]: a check that ran
    out of budget did not complete, which is not a finding. [budget]
    defaults to [Budget.unlimited]. *)

(** {1 ECO replay}

    [eco-equal]'s body, split so the fuzz driver can re-derive a
    failing edit sequence from [(seed, index)] and replay or shrink it
    when writing [.eco] repro files. *)

val eco_edits : rng:Util.Rng.t -> Network.t -> Eco.edit list option
(** The edit sequence [eco-equal] draws for this specimen — the only
    rng consumption the oracle performs. [None] when the specimen is
    unmappable or offers no feasible edit. *)

val eco_replay : budget:Budget.t -> Network.t -> Eco.edit list -> outcome
(** Full-vs-incremental comparison for a concrete edit sequence
    (θ = 0.5, band = 0.35). *)
