(* A small DPLL SAT solver: chronological backtracking, first-unassigned
   branching (true before false), no clause learning, and unit
   propagation over two watched literal positions per clause. Built as
   an *independent* verification engine — equivalence and coverage
   results proved with BDDs elsewhere in the repository are
   cross-checked against it, so a bug would have to appear identically
   in two very different procedures to go unnoticed.

   First-model contract: the search branches on the lowest-numbered
   unassigned variable, true first, and backtracks chronologically, so
   a [Sat] answer is the first model in that order — propagation only
   prunes branches that contain no model. Which clause propagates a
   literal, or in which order, changes the effort, never the model.
   The unit-propagation fixpoint is unique and whether a conflict is
   reached does not depend on the order, so the decisions and
   conflicts made (and the budget ticks, one per decision) are those
   of any complete unit propagation. Only [sat.dpll.propagations] can
   differ between propagation orders, and only in branches that end
   in a conflict.

   A clause is unit when exactly one of its literal *occurrences* is
   unassigned and the others are false: a clause repeating a literal,
   [a ∨ a ∨ b] (which [Tseitin.encode_sop] emits for a gate reading one
   signal on two pins), never propagates [a]. Watches are therefore
   positions in the clause, not literals.

   Literal encoding: variable v >= 0; literal = 2v (positive) or 2v+1
   (negated). *)

type literal = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let var_of l = l / 2
let is_neg l = l land 1 = 1
let negate l = l lxor 1

type result = Sat of bool array | Unsat

let c_solves = Obs.counter "sat.dpll.solves"
let c_decisions = Obs.counter "sat.dpll.decisions"
let c_propagations = Obs.counter "sat.dpll.propagations"
let c_conflicts = Obs.counter "sat.dpll.conflicts"
let c_max_level = Obs.counter "sat.dpll.max_decision_level"
let h_decision_level = Obs.histogram "sat.dpll.decision_level"

type t = {
  nvars : int;
  mutable clauses : literal array list;
}

let create ?base nvars =
  { nvars; clauses = (match base with None -> [] | Some b -> b.clauses) }

let add_clause t lits =
  (* Trivially true clauses (l ∨ ¬l) are dropped; duplicates kept. *)
  let tautological =
    List.exists (fun l -> List.mem (negate l) lits) lits
  in
  if not tautological then t.clauses <- Array.of_list lits :: t.clauses

exception Found of bool array

let solve ?(budget = Budget.unlimited) t =
  Obs.enter "sat.dpll.solve";
  (* [Fun.protect] keeps the Obs span balanced when [Budget.tick]
     aborts the search with [Budget_exceeded]. *)
  Fun.protect ~finally:Obs.leave @@ fun () ->
  Obs.incr c_solves;
  let nvars = t.nvars in
  (* Flat clause store for the clauses of two or more literals: clause
     [c] occupies [lits.(start.(c)) .. lits.(start.(c + 1) - 1)]. Its
     watch slots are [2c] and [2c + 1], and [watch.(w)] is the position
     slot [w] watches. The slots watching literal [l] sit in
     [wl.(wl_start.(l) .. wl_start.(l) + wl_len.(l) - 1)]. Every slot on
     [l]'s list watches a distinct position holding [l], so [l]'s
     segment is sized by [l]'s occurrences and never overflows. *)
  let wl_start = Array.make ((2 * nvars) + 1) 0 in
  let ncl = ref 0 and nocc = ref 0 in
  List.iter
    (fun c ->
      if Array.length c >= 2 then begin
        incr ncl;
        nocc := !nocc + Array.length c;
        Array.iter (fun l -> wl_start.(l + 1) <- wl_start.(l + 1) + 1) c
      end)
    t.clauses;
  for l = 1 to 2 * nvars do
    wl_start.(l) <- wl_start.(l) + wl_start.(l - 1)
  done;
  let wl_len = Array.make (2 * nvars) 0 in
  let wl = Array.make !nocc 0 in
  let lits = Array.make !nocc 0 in
  let start = Array.make (!ncl + 1) 0 in
  let watch = Array.make (2 * !ncl) 0 in
  let watch_slot w =
    let l = lits.(watch.(w)) in
    wl.(wl_start.(l) + wl_len.(l)) <- w;
    wl_len.(l) <- wl_len.(l) + 1
  in
  let units = ref [] and empty = ref false and c = ref 0 in
  List.iter
    (fun cl ->
      match Array.length cl with
      | 0 -> empty := true
      | 1 -> units := cl.(0) :: !units
      | n ->
        let s = start.(!c) in
        Array.blit cl 0 lits s n;
        start.(!c + 1) <- s + n;
        watch.(2 * !c) <- s;
        watch.((2 * !c) + 1) <- s + 1;
        watch_slot (2 * !c);
        watch_slot ((2 * !c) + 1);
        incr c)
    t.clauses;
  (* 0 = unassigned, 1 = true, -1 = false *)
  let value = Array.make nvars 0 in
  let lit_value l =
    let v = value.(var_of l) in
    if is_neg l then -v else v
  in
  (* The trail holds the literals made true, in order; those from
     [qhead] on are not propagated yet. *)
  let trail = Array.make (max 1 nvars) 0 in
  let trail_len = ref 0 and qhead = ref 0 in
  let assign l =
    value.(var_of l) <- (if is_neg l then -1 else 1);
    trail.(!trail_len) <- l;
    incr trail_len
  in
  let undo_to mark =
    while !trail_len > mark do
      decr trail_len;
      value.(var_of trail.(!trail_len)) <- 0
    done;
    qhead := mark
  in
  (* Slot [w]'s literal just became false. Move the slot to another
     non-false position of its clause and answer true; otherwise its
     clause is satisfied by the other watch, unit on it (assigned here),
     or in conflict ([ok] cleared), and the slot stays. *)
  let ok = ref true in
  let rewatch w =
    let mine = watch.(w) and other = watch.(w lxor 1) in
    let ol = lits.(other) in
    lit_value ol <> 1
    &&
    let stop = start.((w lsr 1) + 1) in
    let k = ref start.(w lsr 1) in
    while !k < stop && (!k = mine || !k = other || lit_value lits.(!k) < 0) do
      incr k
    done;
    if !k < stop then begin
      watch.(w) <- !k;
      watch_slot w;
      true
    end
    else begin
      if lit_value ol < 0 then ok := false
      else begin
        Obs.incr c_propagations;
        assign ol
      end;
      false
    end
  in
  (* After a conflict the unvisited slots stay where they are. *)
  let visit fl =
    let base = wl_start.(fl) and kept = ref 0 in
    for i = base to base + wl_len.(fl) - 1 do
      let w = wl.(i) in
      if not (!ok && rewatch w) then begin
        wl.(base + !kept) <- w;
        incr kept
      end
    done;
    wl_len.(fl) <- !kept
  in
  (* Propagate the queued literals to a fixpoint; false on conflict. *)
  let propagate () =
    ok := true;
    while !ok && !qhead < !trail_len do
      let l = trail.(!qhead) in
      incr qhead;
      visit (negate l)
    done;
    if not !ok then Obs.incr c_conflicts;
    !ok
  in
  (* Unit clauses and the empty clause are settled once, before the
     first decision. *)
  let consistent =
    (not !empty)
    && List.for_all
         (fun l ->
           let v = lit_value l in
           if v = 0 then begin
             Obs.incr c_propagations;
             assign l
           end;
           v >= 0)
         !units
  in
  let rec next v = if v >= nvars then -1 else if value.(v) = 0 then v else next (v + 1) in
  (* Every variable below [from] is assigned: the search branches in
     variable order and never unassigns below its decision. *)
  let rec decide level from =
    let v = next from in
    if v < 0 then raise (Found (Array.map (fun x -> x = 1) value))
    else begin
      Budget.tick budget;
      Obs.incr c_decisions;
      Obs.observe h_decision_level level;
      Obs.record_max c_max_level level;
      let mark = !trail_len in
      assign (pos v);
      if propagate () then decide (level + 1) (v + 1);
      undo_to mark;
      assign (neg v);
      if propagate () then decide (level + 1) (v + 1);
      undo_to mark
    end
  in
  try
    if not consistent then Obs.incr c_conflicts
    else if propagate () then decide 1 0;
    Unsat
  with Found model -> Sat model

let is_satisfiable ?budget t =
  match solve ?budget t with Sat _ -> true | Unsat -> false
