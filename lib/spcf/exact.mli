(** Exact SPCF computation under floating-mode timing semantics
    (the paper's Eqn. 1, refined per output value). *)

type options = {
  arrival_shortcut : bool;
      (** cut recursion once the budget reaches the structural arrival
          time — the "short-path" insight of the proposed algorithm *)
  share_across_outputs : bool;
      (** share the (signal, value, budget) memo table between outputs *)
}

val proposed_options : options
val path_based_options : options

val compute :
  Ctx.t -> opts:options -> algorithm:string -> target:float -> Ctx.result

val sigmas :
  Ctx.t ->
  opts:options ->
  outputs:(string * Network.signal) array ->
  target_units:int ->
  (string * Network.signal * Bdd.t) list
(** Per-output SPCFs for an explicit output set (no [Ctx.result]
    wrapper) — what an incremental recompute re-derives for the outputs
    an edit dirtied. The memo is shared across the given outputs iff
    [opts.share_across_outputs]. *)

val short_path : Ctx.t -> target:float -> Ctx.result
(** The paper's proposed algorithm: exact, with memoized time budgets
    and the structural-arrival shortcut. *)

val path_based : Ctx.t -> target:float -> Ctx.result
(** The exact path-based extension of [22]: same result, explores
    path-delay suffixes without the shortcut or cross-output sharing. *)

val floating_delay : Ctx.t -> Network.signal -> float
(** Exact floating-mode (sensitizable) delay of a signal — the largest
    stabilization time over all input patterns. At most the structural
    arrival time; the gap is the signal's false-path slack. *)

val pattern_arrivals : Ctx.t -> bool array -> bool array * int array
(** [(values, arrival_units)] — exact floating-mode stabilization times
    of every signal for one input pattern (reference semantics). *)
