(* Tests for static path-sensitization analysis: verdict correctness
   (cross-checked by the exhaustive sens-sim fuzz oracle), witness
   validity, budget soundness, diagnostic
   integration, and the synthesis false-path pruning option. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let check_float name a b =
  Alcotest.(check (float 1e-9)) name a b

(* Path a -> n1 -> n2 -> y is statically false (needs b = 1 at n1 and
   b = 0 at n2); both b-paths are true.  The buffer a1 is absorbed by
   the mapper. *)
let falsepath_src =
  ".model falsepath\n.inputs a b d\n.outputs y\n.names a a1\n1 1\n\
   .names a1 b n1\n11 1\n.names n1 b n2\n10 1\n\
   .names n2 d y\n1- 1\n-1 1\n.end\n"

(* Lengthening a and c through the XOR makes every topologically
   critical path of y pass through the contradictory b / not-b pair,
   so the whole near-critical set proves false at a narrow band. *)
let allfalse_src =
  ".model allfalse\n.inputs a b c d\n.outputs y\n\
   .names a c x1\n10 1\n01 1\n.names x1 b n1\n11 1\n\
   .names n1 b n2\n10 1\n.names n2 d y\n1- 1\n-1 1\n.end\n"

let mapped src = Mapper.map (Blif.parse src)

let test_mixed_verdicts () =
  let r = Sensitization.analyze ~band:0.35 (mapped falsepath_src) in
  let nt, nf, nu = Sensitization.counts r in
  check_int "true paths" 2 nt;
  check_int "false paths" 1 nf;
  check_int "unknown paths" 0 nu;
  check "not truncated" false r.Sensitization.truncated;
  check "no all-false output" true (Sensitization.false_outputs r = []);
  (match r.Sensitization.summaries with
  | [ s ] ->
      check_int "one output, three paths" 3 s.Sensitization.num_paths;
      check_float "functional bound is the longest true path"
        s.Sensitization.topological s.Sensitization.functional
  | _ -> Alcotest.fail "expected exactly one output summary");
  (* Every witness assigns every primary input. *)
  let npis = Array.length (Network.inputs (Mapped.network (mapped falsepath_src))) in
  List.iter
    (fun c ->
      match c.Sensitization.verdict with
      | Sensitization.True w -> check_int "witness width" npis (Array.length w)
      | _ -> ())
    r.Sensitization.paths

let test_all_false_output () =
  let r = Sensitization.analyze ~band:0.2 (mapped allfalse_src) in
  let nt, nf, nu = Sensitization.counts r in
  check_int "no true paths" 0 nt;
  check_int "both critical paths false" 2 nf;
  check_int "no unknown" 0 nu;
  check "y proved false" true (Sensitization.false_outputs r = [ "y" ]);
  check "functional delta tightened" true
    (r.Sensitization.functional_delta < r.Sensitization.delta -. 1e-9);
  check_float "tightened to the band target" r.Sensitization.target
    r.Sensitization.functional_delta;
  let codes = List.map (fun d -> Analysis.Diag.code_id d.Analysis.Diag.code)
      (Analysis.Passes.sensitization r) in
  check "STA004 raised" true (List.mem "STA004" codes);
  check "MASK005 raised" true (List.mem "MASK005" codes)

let test_oracle_agreement () =
  (* The sens-sim oracle exhaustively simulates every input pattern:
     True witnesses must sensitize, False paths must be dead. *)
  match Fuzz.Oracle.find "sens-sim" with
  | None -> Alcotest.fail "sens-sim oracle missing from catalogue"
  | Some o ->
      List.iter
        (fun src ->
          let net = Blif.parse src in
          match Fuzz.Oracle.run o ~rng:(Util.Rng.create 7) net with
          | Fuzz.Oracle.Pass -> ()
          | Fuzz.Oracle.Fail m -> Alcotest.failf "sens-sim disagrees: %s" m
          | Fuzz.Oracle.Skip m -> Alcotest.failf "sens-sim skipped: %s" m)
        [ falsepath_src; allfalse_src ]

let test_budget_unknown () =
  (* A starved budget must degrade to Unknown, never to a wrong
     True/False verdict, and must not tighten the delay bound. *)
  let budget = Budget.create ~max_ops:1 () in
  let r = Sensitization.analyze ~band:0.35 ~budget (mapped falsepath_src) in
  let nt, nf, nu = Sensitization.counts r in
  check_int "no true under starvation" 0 nt;
  check_int "no false under starvation" 0 nf;
  check "everything unknown" true (nu >= 1);
  check "no pruning evidence" true (Sensitization.false_outputs r = []);
  check_float "bound stays topological" r.Sensitization.delta
    r.Sensitization.functional_delta

let test_band_validation () =
  check "band > 1 rejected" true
    (try
       ignore (Sensitization.analyze ~band:1.5 (mapped falsepath_src));
       false
     with Invalid_argument _ -> true)

let verify_ok name m =
  let r = Masking.Verify.check m in
  check (name ^ ": equivalent") true r.Masking.Verify.equivalent;
  check (name ^ ": coverage") true r.Masking.Verify.coverage_ok;
  check (name ^ ": prediction") true r.Masking.Verify.prediction_ok

let test_prune_certified () =
  let net = Blif.parse allfalse_src in
  let options =
    { Masking.Synthesis.default_options with theta = 0.8; prune_false_paths = true }
  in
  let m = Masking.Synthesis.synthesize ~options net in
  check "y pruned" true (m.Masking.Synthesis.pruned = [ "y" ]);
  verify_ok "pruned" m;
  (* Without the option nothing is pruned and verification still holds. *)
  let m0 =
    Masking.Synthesis.synthesize
      ~options:{ options with Masking.Synthesis.prune_false_paths = false }
      net
  in
  check "prune is opt-in" true (m0.Masking.Synthesis.pruned = []);
  verify_ok "unpruned" m0

let test_prune_preserved_on_suite () =
  (* Pruning must never break certification where plain protect
     succeeds. *)
  List.iter
    (fun name ->
      let options =
        { Masking.Synthesis.default_options with prune_false_paths = true }
      in
      let m = Masking.Synthesis.synthesize ~options (Suite.load name) in
      verify_ok name m)
    [ "i1"; "cmb"; "x2"; "C432" ]

(* The witness search's tree on real instances: the DPLL makes the same
   decisions and conflicts for a given CNF whatever its propagation
   does, so these counts change only with the encoding or the search
   order. *)
let dpll_counts f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let r = f () in
      ( r,
        Obs.counter_value (Obs.counter "sat.dpll.decisions"),
        Obs.counter_value (Obs.counter "sat.dpll.conflicts") ))

let test_search_tree () =
  List.iter
    (fun (name, (nt, nf), (decisions, conflicts)) ->
      let r, d, c =
        dpll_counts (fun () -> Sensitization.analyze (Mapper.map (Suite.load name)))
      in
      let t, f, u = Sensitization.counts r in
      check_int (name ^ ": true") nt t;
      check_int (name ^ ": false") nf f;
      check_int (name ^ ": unknown") 0 u;
      check_int (name ^ ": decisions") decisions d;
      check_int (name ^ ": conflicts") conflicts c)
    [ ("C432", (7, 53), (1501, 412)); ("C2670", (30, 38), (9972, 828)) ]

let () =
  Alcotest.run "sensitization"
    [
      ( "verdicts",
        [
          Alcotest.test_case "mixed" `Quick test_mixed_verdicts;
          Alcotest.test_case "all-false output" `Quick test_all_false_output;
          Alcotest.test_case "oracle agreement" `Quick test_oracle_agreement;
          Alcotest.test_case "band validation" `Quick test_band_validation;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "budget unknown" `Quick test_budget_unknown;
          Alcotest.test_case "search tree" `Quick test_search_tree;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "certified" `Quick test_prune_certified;
          Alcotest.test_case "suite preserved" `Quick test_prune_preserved_on_suite;
        ] );
    ]
