(* Tests for the DPLL solver and the SAT miter, including cross-checks
   of the BDD-based equivalence and masking verification results. *)

let check = Alcotest.(check bool)

let test_dpll_basic () =
  let s = Dpll.create 2 in
  Dpll.add_clause s [ Dpll.pos 0; Dpll.pos 1 ];
  Dpll.add_clause s [ Dpll.neg 0 ];
  (match Dpll.solve s with
  | Dpll.Sat m ->
    check "x0 false" false m.(0);
    check "x1 true" true m.(1)
  | Dpll.Unsat -> Alcotest.fail "satisfiable");
  let u = Dpll.create 1 in
  Dpll.add_clause u [ Dpll.pos 0 ];
  Dpll.add_clause u [ Dpll.neg 0 ];
  check "contradiction unsat" false (Dpll.is_satisfiable u)

(* [pigeons] pigeons in [holes] holes, p(i,h) = variable i * holes + h:
   unsatisfiable when pigeons > holes. *)
let pigeonhole ~pigeons ~holes =
  let v i h = (i * holes) + h in
  let s = Dpll.create (pigeons * holes) in
  for i = 0 to pigeons - 1 do
    Dpll.add_clause s (List.init holes (fun h -> Dpll.pos (v i h)))
  done;
  for h = 0 to holes - 1 do
    for i = 0 to pigeons - 1 do
      for j = i + 1 to pigeons - 1 do
        Dpll.add_clause s [ Dpll.neg (v i h); Dpll.neg (v j h) ]
      done
    done
  done;
  s

let test_dpll_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance. *)
  check "pigeonhole unsat" false (Dpll.is_satisfiable (pigeonhole ~pigeons:3 ~holes:2))

let test_dpll_random_vs_enumeration () =
  (* Random 3-CNF over 8 vars: DPLL verdict must match enumeration. *)
  let rng = Util.Rng.create 13 in
  for _ = 1 to 50 do
    let nvars = 8 in
    let nclauses = 4 + Util.Rng.int rng 30 in
    let clauses =
      List.init nclauses (fun _ ->
          List.init 3 (fun _ ->
              let v = Util.Rng.int rng nvars in
              if Util.Rng.bool rng then Dpll.pos v else Dpll.neg v))
    in
    let s = Dpll.create nvars in
    List.iter (Dpll.add_clause s) clauses;
    let brute =
      List.exists
        (fun i ->
          let env v = i lsr v land 1 = 1 in
          List.for_all
            (fun clause ->
              List.exists
                (fun l ->
                  let value = env (Dpll.var_of l) in
                  if Dpll.is_neg l then not value else value)
                clause)
            clauses)
        (List.init (1 lsl nvars) (fun i -> i))
    in
    check "dpll = enumeration" brute (Dpll.is_satisfiable s)
  done

(* The model contract: [solve] returns the first model in variable
   order, true before false — the assignment whose bit string (variable
   0 first, true read as 0) is smallest — or [Unsat] when there is
   none. Random CNFs over at most 10 variables, with unit clauses, the
   empty clause, clauses repeating a literal and variables no clause
   mentions. *)
let cnf_gen =
  let open QCheck.Gen in
  int_range 1 10 >>= fun nvars ->
  (* Literals draw from a prefix of the variables, so the rest appear in
     no clause. *)
  int_range 1 nvars >>= fun used ->
  let lit = map2 (fun v n -> if n then Dpll.neg v else Dpll.pos v) (int_bound (used - 1)) bool in
  let clause =
    frequency
      [
        (1, return []);
        (4, map (fun l -> [ l ]) lit);
        (3, map (fun l -> [ l; l ]) lit);
        (4, map2 (fun a b -> [ a; a; b ]) lit lit);
        (20, list_size (int_range 2 4) lit);
      ]
  in
  map (fun clauses -> (nvars, clauses)) (list_size (int_bound 24) clause)

let print_cnf (nvars, clauses) =
  let lit l = Printf.sprintf "%s%d" (if Dpll.is_neg l then "-" else "") (Dpll.var_of l) in
  Printf.sprintf "%d vars: %s" nvars
    (String.concat " & "
       (List.map (fun c -> "[" ^ String.concat " " (List.map lit c) ^ "]") clauses))

let first_model nvars clauses =
  let sat m =
    List.for_all
      (List.exists (fun l -> m.(Dpll.var_of l) <> Dpll.is_neg l))
      clauses
  in
  let rec from i =
    if i = 1 lsl nvars then None
    else
      let m = Array.init nvars (fun v -> (i lsr (nvars - 1 - v)) land 1 = 0) in
      if sat m then Some m else from (i + 1)
  in
  from 0

let prop_dpll_first_model =
  QCheck.Test.make ~name:"first model vs enumeration" ~count:500
    (QCheck.make ~print:print_cnf cnf_gen) (fun (nvars, clauses) ->
      let s = Dpll.create nvars in
      List.iter (Dpll.add_clause s) clauses;
      match (Dpll.solve s, first_model nvars clauses) with
      | Dpll.Sat m, Some e -> m = e
      | Dpll.Unsat, None -> true
      | _ -> false)

let test_dpll_budget () =
  (* 5 pigeons, 4 holes is unsatisfiable and takes far more than 3
     decisions to refute: a 3-decision budget must abort the search,
     never answer [Unsat]. *)
  check "unbudgeted: unsat" false (Dpll.is_satisfiable (pigeonhole ~pigeons:5 ~holes:4));
  check "budget exhausted, not unsat" true
    (match Dpll.solve ~budget:(Budget.create ~max_ops:3 ()) (pigeonhole ~pigeons:5 ~holes:4) with
    | _ -> false
    | exception Budget.Budget_exceeded Budget.Ops -> true);
  (* A satisfiable formula needing one decision per variable. *)
  let free = Dpll.create 8 in
  check "8 decisions exceed 7" true
    (match Dpll.solve ~budget:(Budget.create ~max_ops:7 ()) free with
    | _ -> false
    | exception Budget.Budget_exceeded Budget.Ops -> true);
  check "8 decisions fit in 8" true
    (Dpll.solve ~budget:(Budget.create ~max_ops:8 ()) free = Dpll.Sat (Array.make 8 true))

let test_dpll_repeated_literal () =
  (* A clause is unit only when exactly one literal occurrence is left
     unassigned: [x0 ∨ x0 ∨ x1] with x1 false, or [x0 ∨ x1 ∨ x1] with x0
     false, still has two, so the variable is decided rather than
     propagated. The decision counts pinned on real instances rest on
     this. *)
  List.iter
    (fun (name, clauses, model) ->
      let s = Dpll.create 2 in
      List.iter (Dpll.add_clause s) clauses;
      Obs.reset ();
      Obs.set_enabled true;
      let r = Dpll.solve s in
      let decisions = Obs.counter_value (Obs.counter "sat.dpll.decisions") in
      Obs.set_enabled false;
      Obs.reset ();
      check (name ^ ": model") true (r = Dpll.Sat model);
      Alcotest.(check int) (name ^ ": one decision") 1 decisions)
    [
      ("a a b", [ [ Dpll.neg 1 ]; [ Dpll.pos 0; Dpll.pos 0; Dpll.pos 1 ] ], [| true; false |]);
      ("a b b", [ [ Dpll.neg 0 ]; [ Dpll.pos 0; Dpll.pos 1; Dpll.pos 1 ] ], [| false; true |]);
    ]

let test_miter_agrees_with_bdd () =
  (* SAT miter and BDD equivalence agree on optimized copies. The
     benchmark circuits contain XOR chains, whose miters are Tseitin
     formulas — exponential for DPLL without clause learning — so the
     cross-check runs on the smallest circuit plus the comparator. *)
  List.iter
    (fun (name, net) ->
      let opt = Netopt.optimize net in
      check (name ^ ": sat says equivalent") true (Tseitin.equivalent net opt);
      check (name ^ ": agrees with bdd") true
        (Tseitin.equivalent net opt = Network.equivalent net opt))
    [ ("cmb", Suite.load "cmb"); ("comparator", Comparator.network ()) ]

let test_miter_detects_difference () =
  (* Build two tiny networks differing in one gate. *)
  let vars = [| "x"; "y" |] in
  let build func =
    let net = Network.create () in
    let a = Network.add_input net "a" in
    let b = Network.add_input net "b" in
    let z = Network.add_node net "z" ~fanins:[| a; b |] ~func in
    Network.mark_output net ~name:"z" z;
    net
  in
  let and_net = build (Logic2.Sop.parse ~vars "x*y") in
  let or_net = build (Logic2.Sop.parse ~vars "x + y") in
  let and_net2 = build (Logic2.Sop.parse ~vars "x*y") in
  check "same function equivalent" true (Tseitin.equivalent and_net and_net2);
  check "different function detected" false (Tseitin.equivalent and_net or_net)

let test_masking_equivalence_by_sat () =
  (* The flagship cross-check: the masked circuit is equivalent to the
     original under an engine that shares nothing with the BDD verifier. *)
  List.iter
    (fun name ->
      let net = Suite.load name in
      let m = Masking.Synthesis.synthesize net in
      let combined = Mapped.network m.Masking.Synthesis.combined in
      (* Restrict the combined circuit to the original output set. *)
      let restricted = Network.extract_cone combined (
        Array.to_list (Network.outputs net) |> List.map fst)
      in
      check (name ^ ": sat equivalence of masked circuit") true
        (Tseitin.equivalent net restricted))
    [ "cmb" ]

let () =
  Alcotest.run "sat"
    [
      ( "dpll",
        [
          Alcotest.test_case "basics" `Quick test_dpll_basic;
          Alcotest.test_case "pigeonhole" `Quick test_dpll_pigeonhole;
          Alcotest.test_case "random vs enumeration" `Quick test_dpll_random_vs_enumeration;
          QCheck_alcotest.to_alcotest ~rand:(Fuzz.Rng.qcheck_state ()) prop_dpll_first_model;
          Alcotest.test_case "budget exhaustion" `Quick test_dpll_budget;
          Alcotest.test_case "repeated literals" `Quick test_dpll_repeated_literal;
        ] );
      ( "miter",
        [
          Alcotest.test_case "agrees with bdd" `Slow test_miter_agrees_with_bdd;
          Alcotest.test_case "detects difference" `Quick test_miter_detects_difference;
          Alcotest.test_case "masked circuit equivalence" `Slow
            test_masking_equivalence_by_sat;
        ] );
    ]
