(* Budget-governed SPCF: exact -> node-based -> always-on.

   Each tier gets a *fresh* context. Falling back inside the exhausted
   manager would re-raise immediately (its node count already exceeds
   the quota), so tier 2 rebuilds from the circuit under a renewed
   budget — same deadline and quotas, fresh operation count — and the
   tier-3 floor rebuilds ungoverned, because a floor that can itself
   fail is not a floor. Soundness per tier is argued in DESIGN.md §11:
   every tier's Σ is a superset of the exact Σ, and any superset yields
   a masking circuit whose prediction is still correct. *)

type algorithm = Short_path | Path_based | Node_based

type tier = Exact | Node_fallback | Always_on

let tier_to_string = function
  | Exact -> "exact"
  | Node_fallback -> "node-based"
  | Always_on -> "always-on"

let c_fallback_node = Obs.counter "spcf.fallback.node_based"
let c_fallback_always = Obs.counter "spcf.fallback.always_on"
let h_outputs_exact = Obs.histogram "spcf.tier.exact.outputs"
let h_outputs_node = Obs.histogram "spcf.tier.node_based.outputs"
let h_outputs_always = Obs.histogram "spcf.tier.always_on.outputs"

let record_fallback = function
  | Exact -> ()
  | Node_fallback ->
    Obs.incr c_fallback_node;
    Obs.instant "spcf.fallback.node_based"
  | Always_on ->
    Obs.incr c_fallback_always;
    Obs.instant "spcf.fallback.always_on"

(* A governed run that never falls back must still show "fallbacks = 0"
   rather than nothing: register the ladder metrics the moment a real
   budget enters the picture. *)
let touch_ladder_metrics () =
  Obs.touch_counter c_fallback_node;
  Obs.touch_counter c_fallback_always;
  Obs.touch_histogram h_outputs_exact;
  Obs.touch_histogram h_outputs_node;
  Obs.touch_histogram h_outputs_always

let record_tier tier result =
  Obs.observe
    (match tier with
    | Exact -> h_outputs_exact
    | Node_fallback -> h_outputs_node
    | Always_on -> h_outputs_always)
    (Ctx.num_critical_outputs result)

let always_on ctx ~target =
  let outputs, runtime =
    Obs.timed "spcf.always-on" (fun () ->
        Array.to_list (Sta.critical_outputs ctx.Ctx.sta ~target)
        |> List.map (fun (name, y) -> (name, y, Bdd.btrue)))
  in
  Ctx.make_result ctx ~algorithm:"always-on" ~target outputs ~runtime

type outcome = {
  ctx : Ctx.t;
  result : Ctx.result;
  tier : tier;
  attempts : (tier * Budget.reason) list;
}

let run_tier ~model ~budget ~theta algorithm circuit =
  let ctx = Ctx.create ~model ~budget circuit in
  let target = Ctx.target_of_theta ctx theta in
  let result =
    match algorithm with
    | Short_path -> Exact.short_path ctx ~target
    | Path_based -> Exact.path_based ctx ~target
    | Node_based -> Node_based.compute ctx ~target
  in
  (ctx, result)

let finish ~tier ~attempts (ctx, result) =
  (* The construction survived its budget; lift it so downstream
     consumers of the context (satcounts, verification) are not tripped
     by a quota the result already fits inside. *)
  Bdd.set_budget ctx.Ctx.man Budget.unlimited;
  record_tier tier result;
  { ctx; result; tier; attempts }

let floor_tier ~model ~theta ~attempts circuit =
  record_fallback Always_on;
  let ctx = Ctx.create ~model circuit in
  let target = Ctx.target_of_theta ctx theta in
  let result = always_on ctx ~target in
  record_tier Always_on result;
  { ctx; result; tier = Always_on; attempts }

let compute ?(model = Sta.Library) ?(spec = Budget.no_limits) ~algorithm ~theta
    circuit =
  if Budget.is_no_limits spec then
    (* Ungoverned: exactly the plain computation, bit for bit. *)
    finish ~tier:Exact ~attempts:[]
      (run_tier ~model ~budget:Budget.unlimited ~theta algorithm circuit)
  else begin
    touch_ladder_metrics ();
    let budget = Budget.instantiate spec in
    match run_tier ~model ~budget ~theta algorithm circuit with
    | pair -> finish ~tier:Exact ~attempts:[] pair
    | exception Budget.Budget_exceeded Budget.Cancelled ->
      (* Cancellation is not exhaustion: nobody wants the result, so
         degrading to a cheaper tier would waste exactly the work the
         cancel was meant to stop. Abort instead. *)
      raise (Budget.Budget_exceeded Budget.Cancelled)
    | exception Budget.Budget_exceeded r1 ->
      let attempts = [ (Exact, r1) ] in
      if algorithm = Node_based then
        (* The request already was the tier-2 algorithm. *)
        floor_tier ~model ~theta ~attempts circuit
      else begin
        record_fallback Node_fallback;
        match
          run_tier ~model ~budget:(Budget.renew budget) ~theta Node_based circuit
        with
        | pair -> finish ~tier:Node_fallback ~attempts pair
        | exception Budget.Budget_exceeded Budget.Cancelled ->
          raise (Budget.Budget_exceeded Budget.Cancelled)
        | exception Budget.Budget_exceeded r2 ->
          floor_tier ~model ~theta ~attempts:(attempts @ [ (Node_fallback, r2) ])
            circuit
      end
  end
