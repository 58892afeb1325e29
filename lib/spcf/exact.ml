(* Exact SPCF computation (floating-mode timing semantics).

   For a pattern I, a signal z carrying value v stabilizes once some
   prime implicant p of its gate's on-set (v = 1) or off-set (v = 0) is
   satisfied with every literal's source signal already stable. The
   stability function

     S_v(z, T) = patterns where z takes value v and stabilizes by T
               = ⋁_{p ∈ primes_v} ⋀_{l ∈ L(p)} S_{phase(l)}(input_l, T − δ_z)

   is the paper's Eqn. 1 refined per output value; the SPCF at output y is
   Σ_y(T) = ¬(S_0(y,T) ∨ S_1(y,T)).

   Two cost regimes share this engine:
   - the *proposed short-path-based* algorithm memoizes (signal, value,
     budget) globally and cuts recursion with the structural-arrival
     shortcut (a signal is always stable by its static arrival time);
   - the *path-based extension of [22]* explores the same recursion
     without the shortcut and without sharing across outputs, so its
     work grows with the number of distinct path-delay suffixes — the
     path-traversal cost the paper reports as ≈3.5× slower. *)

type options = {
  arrival_shortcut : bool;
  share_across_outputs : bool;
}

let proposed_options = { arrival_shortcut = true; share_across_outputs = true }

let path_based_options = { arrival_shortcut = false; share_across_outputs = false }

let value_bdd ctx s v =
  if v then ctx.Ctx.funcs.(s) else Bdd.bnot ctx.Ctx.man ctx.Ctx.funcs.(s)

let c_stab_calls = Obs.counter "spcf.stability.calls"
let c_stab_memo_hits = Obs.counter "spcf.stability.memo_hits"
let c_stab_shortcut = Obs.counter "spcf.stability.shortcut_cuts"
let c_late_calls = Obs.counter "spcf.lateness.calls"
let c_late_memo_hits = Obs.counter "spcf.lateness.memo_hits"
let h_depth = Obs.histogram "spcf.recursion_depth"

(* Stability S_v(s, budget) with [memo] keyed on (signal, value, budget).
   [depth] only feeds the recursion-depth histogram. *)
let rec stability ctx ~opts ~memo ~depth s v budget =
  Obs.incr c_stab_calls;
  if budget < 0 then Bdd.bfalse
  else begin
    let net = Ctx.network ctx in
    if Network.is_input net s then value_bdd ctx s v
    else if opts.arrival_shortcut && budget >= ctx.Ctx.arrival_units.(s) then begin
      Obs.incr c_stab_shortcut;
      value_bdd ctx s v
    end
    else begin
      let key = (s, v, budget) in
      match Hashtbl.find_opt memo key with
      | Some r ->
        Obs.incr c_stab_memo_hits;
        r
      | None ->
        Obs.observe h_depth depth;
        let on, off = Ctx.primes_of ctx s in
        let cover = if v then on else off in
        let d = ctx.Ctx.delay_units.(s) in
        let fanins = Network.fanins net s in
        let prime_term p =
          List.fold_left
            (fun acc (local, phase) ->
              if acc = Bdd.bfalse then acc
              else
                let child =
                  stability ctx ~opts ~memo ~depth:(depth + 1) fanins.(local)
                    phase (budget - d)
                in
                Bdd.band ctx.Ctx.man acc child)
            Bdd.btrue (Logic2.Cube.literals p)
        in
        let r =
          List.fold_left
            (fun acc p -> Bdd.bor ctx.Ctx.man acc (prime_term p))
            Bdd.bfalse (Logic2.Cover.cubes cover)
        in
        Hashtbl.replace memo key r;
        r
    end
  end

let sigma_of_output ctx ~opts ~memo y target_units =
  let s1 =
    Obs.with_span "stability" (fun () ->
        stability ctx ~opts ~memo ~depth:0 y true target_units)
  in
  let s0 =
    Obs.with_span "stability" (fun () ->
        stability ctx ~opts ~memo ~depth:0 y false target_units)
  in
  Bdd.bnot ctx.Ctx.man (Bdd.bor ctx.Ctx.man s0 s1)

(* Long-path activation ("lateness") functions, computed directly in
   product-of-sums form — the dual formulation the path-based extension
   of [22] uses:

     U_v(z, T) = value_v(z) ∧ ⋀_{p ∈ primes_v} ⋁_{l ∈ L(p)} ¬S(l, T − δ_z)

   where ¬S(l, T') for a literal is "wrong value or not yet stable". The
   result is identical to ¬(S₀ ∨ S₁) (checked by the test suite), but
   the conjunction-of-disjunctions expansion walks every path-suffix
   context — the cost profile of path-based traversal. *)
let rec lateness ctx ~memo ~depth s v budget =
  Obs.incr c_late_calls;
  let man = ctx.Ctx.man in
  let net = Ctx.network ctx in
  if budget < 0 then value_bdd ctx s v
  else if Network.is_input net s then Bdd.bfalse
  else begin
    let key = (s, v, budget) in
    match Hashtbl.find_opt memo key with
    | Some r ->
      Obs.incr c_late_memo_hits;
      r
    | None ->
      Obs.observe h_depth depth;
      let on, off = Ctx.primes_of ctx s in
      let cover = if v then on else off in
      let d = ctx.Ctx.delay_units.(s) in
      let fanins = Network.fanins net s in
      (* ¬S for a literal: value mismatch, or matching but late. *)
      let not_stable local phase =
        let input = fanins.(local) in
        Bdd.bor man
          (value_bdd ctx input (not phase))
          (lateness ctx ~memo ~depth:(depth + 1) input phase (budget - d))
      in
      let prime_blocked p =
        List.fold_left
          (fun acc (local, phase) ->
            if acc = Bdd.btrue then acc else Bdd.bor man acc (not_stable local phase))
          Bdd.bfalse (Logic2.Cube.literals p)
      in
      let blocked_all =
        List.fold_left
          (fun acc p ->
            if acc = Bdd.bfalse then acc else Bdd.band man acc (prime_blocked p))
          Bdd.btrue (Logic2.Cover.cubes cover)
      in
      let r = Bdd.band man (value_bdd ctx s v) blocked_all in
      Hashtbl.replace memo key r;
      r
  end

let sigma_of_output_lateness ctx ~memo y target_units =
  let u1 =
    Obs.with_span "lateness" (fun () ->
        lateness ctx ~memo ~depth:0 y true target_units)
  in
  let u0 =
    Obs.with_span "lateness" (fun () ->
        lateness ctx ~memo ~depth:0 y false target_units)
  in
  Bdd.bor ctx.Ctx.man u0 u1

(* Per-output SPCFs for an explicit output set — the unit of work
   [Eco.recompute] hands over for the outputs an edit dirtied. The memo
   is shared across the given outputs exactly when the options say so,
   matching the whole-circuit algorithms' cost profile. *)
let sigmas ctx ~opts ~outputs ~target_units =
  let memo = Hashtbl.create 4096 in
  Array.to_list outputs
  |> List.map (fun (name, y) ->
         (* Un-amortized checkpoint at each output boundary: a job
            whose client disconnected (or whose deadline passed) stops
            before starting the next cone even if its op counter is
            cold. *)
         Budget.poll ctx.Ctx.budget;
         if not opts.share_across_outputs then Hashtbl.reset memo;
         let sigma =
           Obs.with_span ("output:" ^ name) (fun () ->
               sigma_of_output ctx ~opts ~memo y target_units)
         in
         (name, y, sigma))

(* Runtimes are measured through [Obs.timed] — the same clock that feeds
   the span tree — so the CLI-reported runtime and the statistics agree
   whether or not observation is enabled. *)
let compute ctx ~opts ~algorithm ~target =
  let outputs, runtime =
    Obs.timed ("spcf." ^ algorithm) (fun () ->
        let target_units = Ctx.units_of_target target in
        let critical = Sta.critical_outputs ctx.Ctx.sta ~target in
        sigmas ctx ~opts ~outputs:critical ~target_units)
  in
  Ctx.make_result ctx ~algorithm ~target outputs ~runtime

let short_path ctx ~target =
  compute ctx ~opts:proposed_options ~algorithm:"short-path-based" ~target

(* Lateness-formulation counterpart of [sigmas]: fresh memo per output,
   as the path-based extension prescribes (no cross-output sharing). *)
let sigmas_lateness ctx ~outputs ~target_units =
  Array.to_list outputs
  |> List.map (fun (name, y) ->
         Budget.poll ctx.Ctx.budget;
         let memo = Hashtbl.create 4096 in
         let sigma =
           Obs.with_span ("output:" ^ name) (fun () ->
               sigma_of_output_lateness ctx ~memo y target_units)
         in
         (name, y, sigma))

(* The exact path-based extension of [22]: per-output computation of the
   long-path activation functions in their direct product-of-sums form,
   without cross-output sharing or the structural-arrival shortcut. *)
let path_based ctx ~target =
  let outputs, runtime =
    Obs.timed "spcf.path-based" (fun () ->
        let target_units = Ctx.units_of_target target in
        let critical = Sta.critical_outputs ctx.Ctx.sta ~target in
        sigmas_lateness ctx ~outputs:critical ~target_units)
  in
  Ctx.make_result ctx ~algorithm:"path-based" ~target outputs ~runtime

(* Exact floating-mode delay of a signal: the largest stabilization time
   over all input patterns, found by binary search on the stability
   functions. This is the circuit's "true" (sensitizable) delay, as
   opposed to the structural delay of static timing analysis. *)
let floating_delay ctx s =
  let man = ctx.Ctx.man in
  let stable_at t =
    let memo = Hashtbl.create 256 in
    let s1 = stability ctx ~opts:proposed_options ~memo ~depth:0 s true t in
    let s0 = stability ctx ~opts:proposed_options ~memo ~depth:0 s false t in
    Bdd.bor man s0 s1 = Bdd.btrue
  in
  (* Smallest t with all patterns stable by t. *)
  let rec search lo hi =
    (* invariant: not (stable_at (lo-1)) ... stable_at hi *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if stable_at mid then search lo mid else search (mid + 1) hi
  in
  let hi = ctx.Ctx.arrival_units.(s) in
  float_of_int (search 0 hi) *. Ctx.grid

(* Exact floating-mode stabilization times (in grid units) of every
   signal for one concrete input pattern — the reference semantics used
   by tests and by brute-force SPCF cross-validation. *)
let pattern_arrivals ctx pattern =
  let net = Ctx.network ctx in
  let values = Network.eval net pattern in
  let n = Network.num_signals net in
  let arrival = Array.make n 0 in
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | None -> ()
      | Some nd ->
        let on, off = Ctx.primes_of ctx s in
        let cover = if values.(s) then on else off in
        let d = ctx.Ctx.delay_units.(s) in
        let consistent p =
          List.for_all
            (fun (local, phase) -> values.(nd.Network.fanins.(local)) = phase)
            (Logic2.Cube.literals p)
        in
        let prime_time p =
          List.fold_left
            (fun acc (local, _) -> max acc (arrival.(nd.Network.fanins.(local)) + d))
            d (Logic2.Cube.literals p)
        in
        let best =
          List.fold_left
            (fun acc p -> if consistent p then min acc (prime_time p) else acc)
            max_int (Logic2.Cover.cubes cover)
        in
        (* Every pattern satisfies some prime of the on-set or off-set. *)
        assert (best < max_int);
        arrival.(s) <- best)
    (Network.topo_order net);
  (values, arrival)
