(* Shared context for SPCF computation over a technology-mapped circuit:
   static timing, global signal BDDs, integer-grid gate delays, and a
   cache of prime-implicant pairs per library cell.

   Delays are snapped to a 0.01-unit grid (all library delays are exact
   multiples), so stabilization times live on an integer lattice and the
   comparison "stable by the target" is exact in integer arithmetic. *)

type t = {
  circuit : Mapped.t;
  model : Sta.delay_model;
  sta : Sta.t;
  man : Bdd.man;
  funcs : Bdd.t array; (* per signal, over primary-input BDD variables *)
  delay_units : int array; (* per signal: driving-gate delay, grid units *)
  arrival_units : int array;
  primes : (string, Logic2.Cover.t * Logic2.Cover.t) Hashtbl.t;
  budget : Budget.t; (* governs the manager; Budget.unlimited by default *)
}

let grid = 0.01

let units_of_delay d = int_of_float (Float.round (d /. grid))

(* Largest integer t with t*grid <= target (+ epsilon for exact floats):
   a signal stabilizing at lattice time a is within target iff a <= t. *)
let units_of_target target = int_of_float (Float.floor ((target /. grid) +. 1e-6))

let c_primes_hits = Obs.counter "spcf.primes.cache_hits"
let c_primes_computed = Obs.counter "spcf.primes.computed"
let h_primes_cubes = Obs.histogram "spcf.primes.cover_cubes"

let create ?(model = Sta.Library) ?(budget = Budget.unlimited) circuit =
  Obs.enter "spcf.ctx.create";
  (* Budget exhaustion can raise out of [to_bdds]; keep the span tree
     balanced on that path. *)
  Fun.protect ~finally:Obs.leave @@ fun () ->
  let sta = Obs.with_span "sta.analyze" (fun () -> Sta.analyze ~model circuit) in
  let man, funcs =
    Obs.with_span "network.to_bdds" (fun () ->
        Network.to_bdds ~budget (Mapped.network circuit))
  in
  let delays = Sta.gate_delays model circuit in
  let delay_units = Array.map units_of_delay delays in
  let net = Mapped.network circuit in
  let n = Network.num_signals net in
  let arrival_units = Array.make n 0 in
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | None -> ()
      | Some nd ->
        let worst =
          Array.fold_left (fun acc f -> max acc arrival_units.(f)) 0 nd.Network.fanins
        in
        arrival_units.(s) <- worst + delay_units.(s))
    (Network.topo_order net);
  {
    circuit;
    model;
    sta;
    man;
    funcs;
    delay_units;
    arrival_units;
    primes = Hashtbl.create 32;
    budget;
  }

let network t = Mapped.network t.circuit

(* On-set and off-set prime implicants of the cell driving [s]. *)
let primes_of t s =
  match Mapped.cell_of t.circuit s with
  | None -> invalid_arg "Ctx.primes_of: signal is not a gate"
  | Some cell -> (
    match Hashtbl.find_opt t.primes cell.Cell.cname with
    | Some pair ->
      Obs.incr c_primes_hits;
      pair
    | None ->
      Obs.incr c_primes_computed;
      let pair = Logic2.Primes.onset_and_offset_primes cell.Cell.logic in
      Obs.observe h_primes_cubes
        (Logic2.Cover.num_cubes (fst pair) + Logic2.Cover.num_cubes (snd pair));
      Hashtbl.replace t.primes cell.Cell.cname pair;
      pair)

let delta t = Sta.delta t.sta

(* The default experiment target: speed-paths within (1 - theta) of the
   critical path delay; the paper uses theta = 0.9. *)
let target_of_theta t theta = theta *. delta t

(* Per-output SPCF result of one algorithm run. *)
type result = {
  target : float;
  algorithm : string;
  outputs : (string * Network.signal * Bdd.t) list; (* critical POs only *)
  union : Bdd.t;
  runtime : float;
}

let count t result = Bdd.satcount t.man result.union

let count_output t result name =
  match List.find_opt (fun (n, _, _) -> n = name) result.outputs with
  | Some (_, _, sigma) -> Some (Bdd.satcount t.man sigma)
  | None -> None

let num_critical_outputs result = List.length result.outputs

let make_result t ~algorithm ~target outputs ~runtime =
  let union =
    List.fold_left (fun acc (_, _, b) -> Bdd.bor t.man acc b) Bdd.bfalse outputs
  in
  { target; algorithm; outputs; union; runtime }
