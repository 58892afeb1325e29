(* Tests for static timing analysis and the simulators (bit-parallel
   logic simulation, event-driven timing simulation, power estimation). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------- STA ---------- *)

let comparator_mapped () =
  let net = Comparator.network () in
  let mc, smap = Mapper.map_with_signals net in
  let sig_of name = smap.(Option.get (Network.find net name)) in
  (mc, sig_of)

let test_sta_comparator () =
  let mc, sig_of = comparator_mapped () in
  let sta = Sta.analyze ~model:Sta.Paper_units mc in
  checkf "delta = 7" 7.0 (Sta.delta sta);
  (* Arrival times from the paper's Fig. 2(a). *)
  let arr name = Sta.arrival sta (sig_of name) in
  checkf "nb0" 1.0 (arr "nb0");
  checkf "or1" 3.0 (arr "or1");
  checkf "and1" 5.0 (arr "and1");
  checkf "and2" 3.0 (arr "and2");
  checkf "y" 7.0 (arr "y");
  (* Criticality at the paper's 6.3 target. *)
  let crit = Sta.critical_outputs sta ~target:6.3 in
  check_int "one critical output" 1 (Array.length crit);
  let gates = Sta.critical_signals sta ~target:6.3 in
  let is name = gates.(sig_of name) in
  check "nb0 critical" true (is "nb0");
  check "nb1 critical" true (is "nb1");
  check "and2 not critical" false (is "and2")

let test_sta_tail_and_slack () =
  let mc, sig_of = comparator_mapped () in
  let sta = Sta.analyze ~model:Sta.Paper_units mc in
  (* tail(or1) = and1 (2) + y (2) = 4 *)
  checkf "tail or1" 4.0 (Sta.tail sta (sig_of "or1"));
  checkf "slack or1 at 7" 0.0 (Sta.slack sta ~target:7.0 (sig_of "or1"));
  (* arrival + tail along the critical path equals delta *)
  let path, len = Sta.longest_path sta in
  checkf "longest path length" 7.0 len;
  List.iter
    (fun s -> checkf "on-path arr+tail" 7.0 (Sta.arrival sta s +. Sta.tail sta s))
    path

let test_sta_models () =
  let mc = Comparator.mapped () in
  let unit_sta = Sta.analyze ~model:Sta.Unit mc in
  (* Unit model: depth of the comparator netlist is 4 gates. *)
  checkf "unit delta" 4.0 (Sta.delta unit_sta);
  let lib = Sta.analyze ~model:Sta.Library mc in
  check "library delta positive" true (Sta.delta lib > 0.);
  let load = Sta.analyze ~model:(Sta.Library_load 0.01) mc in
  check "load model is slower" true (Sta.delta load > Sta.delta lib)

let test_sta_monotone_arrival () =
  let net = Suite.load "C880" in
  let mc = Mapper.map net in
  let sta = Sta.analyze mc in
  let mnet = Mapped.network mc in
  Array.iter
    (fun s ->
      match Network.node_of mnet s with
      | None -> ()
      | Some nd ->
        Array.iter
          (fun f ->
            check "arrival strictly grows through gates" true
              (Sta.arrival sta s > Sta.arrival sta f))
          nd.Network.fanins)
    (Network.topo_order mnet)

(* ---------- Bit-parallel simulation ---------- *)

(* Bit [b] of every input word is pattern [b], the sign bit included, so
   bit [b] of every signal's word must be the scalar value on pattern [b]. *)
let check_bitsim_bits name net rng =
  let sim = Bitsim.prepare net in
  for _ = 1 to 4 do
    let words =
      Array.map
        (fun w -> if Util.Rng.bool rng then w lor min_int else w)
        (Bitsim.random_pi_words sim rng)
    in
    let values = Bitsim.eval_word sim words in
    for bit = 0 to Sys.int_size - 1 do
      let scalar = Network.eval net (Array.map (fun w -> w lsr bit land 1 = 1) words) in
      Array.iteri
        (fun s v ->
          if values.(s) lsr bit land 1 = 1 <> v then
            Alcotest.failf "%s: signal %s bit %d: bitsim=%b eval=%b" name
              (Network.name_of net s) bit (not v) v)
        scalar
    done
  done

(* Constant, empty and tautological covers, zero- and one-input gates,
   duplicate fanins and an output aliasing a primary input. *)
let corner_network () =
  let net = Network.create () in
  let a = Network.add_input net "a" and b = Network.add_input net "b" in
  let cover n cubes = Logic2.Cover.of_cubes n (List.map (Logic2.Cube.make n) cubes) in
  let add name fanins func = Network.add_node net name ~fanins ~func in
  let gates =
    [
      add "zero" [| a |] (Logic2.Cover.zero 1);
      add "one" [| a |] (Logic2.Cover.one 1);
      add "zero0" [||] (Logic2.Cover.zero 0);
      add "one0" [||] (Logic2.Cover.one 0);
      add "taut" [| b |] (cover 1 [ [ (0, true) ]; [ (0, false) ] ]);
      add "inv" [| b |] (cover 1 [ [ (0, false) ] ]);
      add "dup" [| a; a |]
        (cover 2 [ [ (0, true); (1, false) ]; [ (0, true); (1, true) ] ]);
      add "xor_dup" [| a; b; a |]
        (cover 3 [ [ (0, true); (1, false) ]; [ (1, true); (2, false) ] ]);
    ]
  in
  Network.mark_output net ~name:"pa" a;
  List.iteri (fun i s -> Network.mark_output net ~name:(Printf.sprintf "po%d" i) s) gates;
  net

let test_bitsim_matches_eval () =
  let rng = Util.Rng.create 11 in
  check_bitsim_bits "x2" (Suite.load "x2") rng;
  List.iter
    (fun name ->
      let net = Mapped.network (Mapper.map (Suite.load name)) in
      check_bitsim_bits (name ^ " mapped") net rng)
    [ "x2"; "C432"; "C880" ];
  check_bitsim_bits "corners" (corner_network ()) rng;
  let frng = Fuzz.Rng.create ~seed:5 in
  for i = 1 to 100 do
    check_bitsim_bits (Printf.sprintf "fuzz specimen %d" i)
      (Fuzz.Gen.network (Fuzz.Gen.generate frng))
      rng
  done

let test_popcount () =
  let naive w =
    let c = ref 0 in
    for b = 0 to Sys.int_size - 1 do
      if w lsr b land 1 = 1 then incr c
    done;
    !c
  in
  check_int "0" 0 (Bitsim.popcount 0);
  check_int "-1" Sys.int_size (Bitsim.popcount (-1));
  check_int "max_int" (Sys.int_size - 1) (Bitsim.popcount max_int);
  check_int "min_int" 1 (Bitsim.popcount min_int);
  let rng = Util.Rng.create 13 in
  for _ = 1 to 1000 do
    let w = (Util.Rng.int rng (1 lsl 31) lsl 32) lxor Util.Rng.int rng (1 lsl 32) in
    let w = if Util.Rng.bool rng then w lor min_int else w in
    check_int "random word" (naive w) (Bitsim.popcount w)
  done

(* Golden power totals, exact to the last bit: they hold only while the
   simulated words, the draw order of the pattern generator and the
   toggle counting all stay as they are. *)
let test_power_golden () =
  List.iter
    (fun (name, expected) ->
      let mc = Mapper.map (Suite.load name) in
      let total = Power.total ~rounds:128 mc in
      Alcotest.(check string) name expected (Printf.sprintf "%h" total))
    [ ("C432", "0x1.6106eb273c4dap+7"); ("alu4", "0x1.6cb916ed712ebp+9") ]

let test_power_report () =
  let net = Suite.load "i1" in
  let mc = Mapper.map net in
  let r = Power.estimate ~rounds:64 mc in
  check "total positive" true (r.Power.total > 0.);
  Array.iter (fun a -> check "activity in [0,1]" true (a >= 0. && a <= 1.)) r.Power.activity;
  (* Power is deterministic in the seed. *)
  checkf "deterministic" r.Power.total (Power.total ~rounds:64 mc)

(* ---------- Event-driven timing simulation ---------- *)

let test_tsim_settles_to_eval () =
  let net = Suite.load "cu" in
  let mc = Mapper.map net in
  let delays = Sta.gate_delays Sta.Library mc in
  let mnet = Mapped.network mc in
  let n_in = Array.length (Network.inputs mnet) in
  let rng = Util.Rng.create 21 in
  for _ = 1 to 100 do
    let from_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let to_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let r = Tsim.simulate mc ~delays ~from_ ~to_ ~clock:1000. in
    check "final = functional eval" true (r.Tsim.final = Network.eval mnet to_);
    (* With a clock beyond the settle time, capture equals final. *)
    check "late clock captures final" true (r.Tsim.at_clock = r.Tsim.final)
  done

let test_tsim_settle_bounded_by_sta () =
  let net = Suite.load "C432" in
  let mc = Mapper.map net in
  let sta = Sta.analyze mc in
  let delays = Sta.gate_delays Sta.Library mc in
  let mnet = Mapped.network mc in
  let n_in = Array.length (Network.inputs mnet) in
  let rng = Util.Rng.create 22 in
  for _ = 1 to 50 do
    let from_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let to_ = Array.init n_in (fun _ -> Util.Rng.bool rng) in
    let r = Tsim.simulate mc ~delays ~from_ ~to_ ~clock:1000. in
    check "settle within structural delta" true (r.Tsim.settle <= Sta.delta sta +. 1e-9)
  done

let test_tsim_capture_stale () =
  (* A two-inverter chain; clock before the second inverter settles. *)
  let net = Network.create () in
  let a = Network.add_input net "a" in
  let inv = Logic2.Sop.parse ~vars:[| "x" |] "!x" in
  let n1 = Network.add_node net "n1" ~fanins:[| a |] ~func:inv in
  let n2 = Network.add_node net "n2" ~fanins:[| n1 |] ~func:inv in
  Network.mark_output net ~name:"z" n2;
  let mc, smap = Mapper.map_with_signals net in
  let delays = Sta.gate_delays Sta.Unit mc in
  let r = Tsim.simulate mc ~delays ~from_:[| false |] ~to_:[| true |] ~clock:1.5 in
  let z = smap.(n2) in
  check "final correct" true r.Tsim.final.(z);
  check "capture is stale" false r.Tsim.at_clock.(z)

let test_degraded_delays () =
  let base = [| 1.0; 2.0; 3.0 |] in
  let aged = Tsim.degraded_delays base ~factor:1.5 ~on:(fun s -> s = 1) in
  checkf "untouched" 1.0 aged.(0);
  checkf "aged" 3.0 aged.(1);
  checkf "untouched2" 3.0 aged.(2)

(* ---------- Heap ---------- *)

let test_heap_order_and_stability () =
  let h = Util.Heap.create (-1) in
  Util.Heap.push h 3.0 1;
  Util.Heap.push h 1.0 2;
  Util.Heap.push h 2.0 3;
  Util.Heap.push h 1.0 4;
  (* pops in key order; FIFO among equal keys *)
  check "pop1" true (Util.Heap.pop h = Some (1.0, 2));
  check "pop2" true (Util.Heap.pop h = Some (1.0, 4));
  check "pop3" true (Util.Heap.pop h = Some (2.0, 3));
  check "pop4" true (Util.Heap.pop h = Some (3.0, 1));
  check "empty" true (Util.Heap.pop h = None)

let test_heap_random () =
  let rng = Util.Rng.create 99 in
  let h = Util.Heap.create (-1) in
  let items = List.init 500 (fun i -> (Util.Rng.float rng, i)) in
  List.iter (fun (k, v) -> Util.Heap.push h k v) items;
  let rec drain last acc =
    match Util.Heap.pop h with
    | None -> acc
    | Some (k, _) ->
      check "nondecreasing keys" true (k >= last);
      drain k (acc + 1)
  in
  check_int "all popped" 500 (drain neg_infinity 0)

let () =
  Alcotest.run "timing-sim"
    [
      ( "sta",
        [
          Alcotest.test_case "comparator fig2" `Quick test_sta_comparator;
          Alcotest.test_case "tail and slack" `Quick test_sta_tail_and_slack;
          Alcotest.test_case "delay models" `Quick test_sta_models;
          Alcotest.test_case "monotone arrivals" `Quick test_sta_monotone_arrival;
        ] );
      ( "bitsim",
        [
          Alcotest.test_case "matches eval" `Quick test_bitsim_matches_eval;
          Alcotest.test_case "power report" `Quick test_power_report;
          Alcotest.test_case "popcount" `Quick test_popcount;
          Alcotest.test_case "power golden" `Quick test_power_golden;
        ] );
      ( "tsim",
        [
          Alcotest.test_case "settles to eval" `Quick test_tsim_settles_to_eval;
          Alcotest.test_case "settle bounded by STA" `Quick test_tsim_settle_bounded_by_sta;
          Alcotest.test_case "stale capture" `Quick test_tsim_capture_stale;
          Alcotest.test_case "degraded delays" `Quick test_degraded_delays;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order + stability" `Quick test_heap_order_and_stability;
          Alcotest.test_case "random drain" `Quick test_heap_random;
        ] );
    ]
