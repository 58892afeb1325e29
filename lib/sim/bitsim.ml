(* Bit-parallel zero-delay logic simulation: 62 patterns per native int
   word, evaluated over a network's SOP node functions.

   [prepare] compiles the network once into flat int arrays, so a word
   costs three nested index loops (gates, cubes, literals) and no
   allocation beyond the result. Cube [c] of gate [g] is
   [cube_start.(g) <= c < cube_start.(g + 1)]; its literals are
   [lit_start.(c) <= k < lit_start.(c + 1)], and [lits.(k)] packs the
   literal's driving signal with its polarity as [signal * 2 + neg]. *)

type t = {
  num_signals : int;
  inputs : Network.signal array;
  gates : Network.signal array; (* topological order *)
  cube_start : int array;
  lit_start : int array;
  lits : int array;
}

(* [starts sizes] is the start index of each group when groups of these
   sizes are laid end to end, followed by the total. *)
let starts sizes =
  let a = Array.make (List.length sizes + 1) 0 in
  List.iteri (fun i n -> a.(i + 1) <- a.(i) + n) sizes;
  a

let prepare net =
  let gates =
    List.filter_map
      (fun s -> Option.map (fun nd -> (s, nd)) (Network.node_of net s))
      (Array.to_list (Network.topo_order net))
  in
  let cubes =
    List.concat_map
      (fun (_, nd) ->
        List.map
          (fun c ->
            List.map
              (fun (v, ph) -> (nd.Network.fanins.(v) lsl 1) lor Bool.to_int (not ph))
              (Logic2.Cube.literals c))
          (Logic2.Cover.cubes nd.Network.func))
      gates
  in
  {
    num_signals = Network.num_signals net;
    inputs = Network.inputs net;
    gates = Array.of_list (List.map fst gates);
    cube_start =
      starts (List.map (fun (_, nd) -> Logic2.Cover.num_cubes nd.Network.func) gates);
    lit_start = starts (List.map List.length cubes);
    lits = Array.of_list (List.concat cubes);
  }

let of_mapped circuit = prepare (Mapped.network circuit)

(* Every signal is a primary input or a gate, so [eval_into] overwrites
   all of [value]: a buffer can be reused across words. A negative
   literal is [v lxor -1] = [lnot v]; an empty cube is all ones and an
   empty cover all zeros, exactly as the SOP reads. *)
let eval_into t pi_words value =
  Array.iteri (fun i s -> value.(s) <- pi_words.(i)) t.inputs;
  for g = 0 to Array.length t.gates - 1 do
    let sum = ref 0 in
    for c = t.cube_start.(g) to t.cube_start.(g + 1) - 1 do
      let prod = ref (-1) in
      for k = t.lit_start.(c) to t.lit_start.(c + 1) - 1 do
        let l = t.lits.(k) in
        prod := !prod land (value.(l lsr 1) lxor -(l land 1))
      done;
      sum := !sum lor !prod
    done;
    value.(t.gates.(g)) <- !sum
  done

(* Evaluate all signals for a word of patterns; [pi_words.(i)] carries the
   i-th primary input's values, one pattern per bit. *)
let eval_word t pi_words =
  if Array.length pi_words <> Array.length t.inputs then
    invalid_arg "Bitsim.eval_word: wrong number of input words";
  let value = Array.make t.num_signals 0 in
  eval_into t pi_words value;
  value

(* 62 random bits, keeping the sign bit clear. *)
let random_word rng =
  let a = Util.Rng.int rng (1 lsl 31) and b = Util.Rng.int rng (1 lsl 31) in
  (a lsl 31) lor b

let random_pi_words t rng = Array.init (Array.length t.inputs) (fun _ -> random_word rng)

(* SWAR popcount over bits 0..61 (the 62-bit masks below are the usual
   64-bit ones cut to fit a positive int), plus the sign bit. *)
let popcount w =
  let x = w land max_int in
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  ((x * 0x0101_0101_0101_0101) lsr 56) + (w lsr 62)

(* Per-signal toggle counts between consecutive randomly-drawn pattern
   words, for switching-activity estimation. [rounds] words are applied;
   each contributes 62 pattern pairs plus one carry-over pair. Two value
   buffers alternate between the current and the previous word. *)
let toggle_counts t rng ~rounds =
  let n = t.num_signals in
  let toggles = Array.make n 0 in
  let pi_words = Array.make (Array.length t.inputs) 0 in
  let value = ref (Array.make n 0) and last = ref (Array.make n 0) in
  for round = 1 to rounds do
    for i = 0 to Array.length pi_words - 1 do
      pi_words.(i) <- random_word rng
    done;
    let v = !value and l = !last in
    eval_into t pi_words v;
    if round > 1 then
      (* Pairs within the word: bit b vs bit b+1 (61 pairs over 62 bits),
         plus the seam between the previous word's top bit and this one's
         bottom bit. *)
      for s = 0 to n - 1 do
        let x = v.(s) in
        let within = (x lxor (x lsr 1)) land ((1 lsl 61) - 1) in
        let seam = (x lxor (l.(s) lsr 61)) land 1 in
        toggles.(s) <- toggles.(s) + popcount within + seam
      done;
    value := l;
    last := v
  done;
  let pairs = max 1 ((rounds - 1) * 62) in
  (toggles, pairs)

(* Activity = toggle probability per signal. *)
let activities t rng ~rounds =
  let toggles, pairs = toggle_counts t rng ~rounds in
  Array.map (fun c -> float_of_int c /. float_of_int pairs) toggles
