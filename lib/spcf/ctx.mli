(** Shared state for SPCF computation on a mapped circuit. *)

type t = {
  circuit : Mapped.t;
  model : Sta.delay_model;
  sta : Sta.t;
  man : Bdd.man;
  funcs : Bdd.t array;
  delay_units : int array;
  arrival_units : int array;
  primes : (string, Logic2.Cover.t * Logic2.Cover.t) Hashtbl.t;
  budget : Budget.t;  (** governs [man]; [Budget.unlimited] by default *)
}

val grid : float
(** Delay lattice step (0.01 units); all cell delays are exact multiples. *)

val units_of_delay : float -> int
val units_of_target : float -> int
val create : ?model:Sta.delay_model -> ?budget:Budget.t -> Mapped.t -> t
(** [budget] governs the context's BDD manager from construction on:
    both [to_bdds] and every subsequent SPCF computation can raise
    [Budget.Budget_exceeded]. *)

val network : t -> Network.t

val primes_of : t -> Network.signal -> Logic2.Cover.t * Logic2.Cover.t

val delta : t -> float
val target_of_theta : t -> float -> float

type result = {
  target : float;
  algorithm : string;
  outputs : (string * Network.signal * Bdd.t) list;
      (** the SPCF Σ_y for every critical primary output *)
  union : Bdd.t;  (** OR of the per-output SPCFs *)
  runtime : float;  (** wall-clock seconds for the computation *)
}

val count : t -> result -> Extfloat.t
(** Number of critical patterns (minterms of the union SPCF). *)

val count_output : t -> result -> string -> Extfloat.t option
val num_critical_outputs : result -> int

val make_result :
  t ->
  algorithm:string ->
  target:float ->
  (string * Network.signal * Bdd.t) list ->
  runtime:float ->
  result
