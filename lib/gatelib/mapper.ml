(* Technology mapping: translate a technology-independent network into
   library gates. Each node's SOP becomes (inverters +) AND trees per cube
   and an OR tree across cubes; small node functions that exactly match a
   library cell (NAND/NOR/AOI/OAI/XOR/...) map to that single cell. Trees
   are balanced by default, which keeps mapped depth logarithmic — the
   property the error-masking circuit relies on for its timing slack. *)

type style = Balanced | Chain

(* Truth table of a cover as a bitmask, for arities small enough to match
   library cells directly. *)
let truth_mask cover =
  let n = Logic2.Cover.num_vars cover in
  assert (n <= 6);
  let mask = ref 0 in
  for i = 0 to (1 lsl n) - 1 do
    let assignment = Array.init n (fun v -> i lsr v land 1 = 1) in
    if Logic2.Cover.eval cover assignment then mask := !mask lor (1 lsl i)
  done;
  !mask

(* Built eagerly and only read afterwards: the serve worker domains map
   circuits concurrently, and two domains forcing one lazy value at
   once raise [CamlinternalLazy.Undefined]. *)
let cell_matches =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      if c.Cell.arity <= 4 && c.Cell.cname <> "B1" then
        Hashtbl.replace tbl (c.Cell.arity, truth_mask c.Cell.logic) c)
    Cell.all;
  tbl

(* Split [n] items into ceil(n/4) groups of nearly equal size (2..4, or a
   single passthrough), for balanced tree reduction. *)
let group_sizes n =
  let groups = (n + 3) / 4 in
  let base = n / groups and extra = n mod groups in
  List.init groups (fun i -> if i < extra then base + 1 else base)

let rec take k = function
  | rest when k = 0 -> ([], rest)
  | [] -> invalid_arg "take"
  | x :: rest ->
    let xs, rest' = take (k - 1) rest in
    (x :: xs, rest')

type ctx = {
  mc : Mapped.t;
  style : style;
  inv_cache : (Network.signal, Network.signal) Hashtbl.t;
}

let invert ctx s =
  match Hashtbl.find_opt ctx.inv_cache s with
  | Some i -> i
  | None ->
    let i = Mapped.add_gate ctx.mc Cell.inv [| s |] in
    Hashtbl.replace ctx.inv_cache s i;
    Hashtbl.replace ctx.inv_cache i s;
    i

(* Reduce a list of signals with an associative-commutative operation
   provided as cells indexed by arity - 2. *)
let reduce_tree ctx cells signals =
  let combine group =
    match group with
    | [ s ] -> s
    | _ ->
      let k = List.length group in
      Mapped.add_gate ctx.mc cells.(k - 2) (Array.of_list group)
  in
  match ctx.style with
  | Chain ->
    (match signals with
    | [] -> invalid_arg "reduce_tree: empty"
    | first :: rest ->
      List.fold_left (fun acc s -> combine [ acc; s ]) first rest)
  | Balanced ->
    let rec rounds current =
      match current with
      | [] -> invalid_arg "reduce_tree: empty"
      | [ s ] -> s
      | _ ->
        let n = List.length current in
        let next =
          List.fold_left
            (fun (acc, rest) size ->
              let group, rest' = take size rest in
              (combine group :: acc, rest'))
            ([], current) (group_sizes n)
          |> fst |> List.rev
        in
        rounds next
    in
    rounds signals

(* Constants are rare (dead logic, degenerate BLIF nodes); realize them
   from the first available signal. *)
let constant ctx base value =
  let nbase = invert ctx base in
  if value then Mapped.add_gate ctx.mc Cell.or2 [| base; nbase |]
  else Mapped.add_gate ctx.mc Cell.an2 [| base; nbase |]

let literal ctx fanin_signals (v, ph) =
  let s = fanin_signals.(v) in
  if ph then s else invert ctx s

let map_cover ctx cover fanin_signals =
  let arity = Logic2.Cover.num_vars cover in
  if Logic2.Cover.is_zero cover then
    constant ctx (if arity > 0 then fanin_signals.(0) else invalid_arg "constant node") false
  else if Logic2.Cover.has_universe cover then
    constant ctx (if arity > 0 then fanin_signals.(0) else invalid_arg "constant node") true
  else begin
    let direct =
      if arity >= 1 && arity <= 4 then
        Hashtbl.find_opt cell_matches (arity, truth_mask cover)
      else None
    in
    match direct with
    | Some cell when cell.Cell.arity = arity ->
      Mapped.add_gate ctx.mc cell fanin_signals
    | _ ->
      let map_cube c =
        match Logic2.Cube.literals c with
        | [] -> assert false (* universe cube handled above *)
        | [ lit ] -> literal ctx fanin_signals lit
        | lits -> reduce_tree ctx Cell.and_cells (List.map (literal ctx fanin_signals) lits)
      in
      (match Logic2.Cover.cubes cover with
      | [] -> assert false
      | [ c ] -> map_cube c
      | cs -> reduce_tree ctx Cell.or_cells (List.map map_cube cs))
  end

let map_with_signals ?(style = Balanced) net =
  let mc = Mapped.create () in
  let ctx = { mc; style; inv_cache = Hashtbl.create 256 } in
  let nsig = Network.num_signals net in
  let mapped = Array.make nsig (-1) in
  Array.iter
    (fun s -> mapped.(s) <- Mapped.add_input mc (Network.name_of net s))
    (Network.inputs net);
  Array.iter
    (fun s ->
      match Network.node_of net s with
      | None -> ()
      | Some nd ->
        let fanin_signals = Array.map (fun f -> mapped.(f)) nd.Network.fanins in
        mapped.(s) <- map_cover ctx nd.Network.func fanin_signals)
    (Network.topo_order net);
  Array.iter
    (fun (name, s) -> Mapped.mark_output mc ~name mapped.(s))
    (Network.outputs net);
  (mc, mapped)

let map ?style net = fst (map_with_signals ?style net)
