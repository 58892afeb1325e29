(* Technology-independent Boolean network: a DAG of nodes, each carrying a
   sum-of-products local function over its fanins. Acyclicity holds by
   construction: a node's fanins must exist before the node is added. *)

type signal = int

type node = { fanins : signal array; func : Logic2.Cover.t }

type t = {
  mutable signal_name : string array;
  mutable def : node option array;
  mutable count : int;
  index : (string, signal) Hashtbl.t;
  mutable inputs_rev : signal list;
  mutable outputs_rev : (string * signal) list;
}

let create () =
  {
    signal_name = Array.make 64 "";
    def = Array.make 64 None;
    count = 0;
    index = Hashtbl.create 256;
    inputs_rev = [];
    outputs_rev = [];
  }

let num_signals t = t.count

let grow t =
  let cap = Array.length t.signal_name in
  let cap' = cap * 2 in
  t.signal_name <- Array.init cap' (fun i -> if i < cap then t.signal_name.(i) else "");
  t.def <- Array.init cap' (fun i -> if i < cap then t.def.(i) else None)

let fresh t name =
  if Hashtbl.mem t.index name then
    invalid_arg (Printf.sprintf "Network: duplicate signal %S" name);
  if t.count >= Array.length t.signal_name then grow t;
  let s = t.count in
  t.signal_name.(s) <- name;
  t.count <- s + 1;
  Hashtbl.add t.index name s;
  s

let add_input t name =
  let s = fresh t name in
  t.inputs_rev <- s :: t.inputs_rev;
  s

let add_node t name ~fanins ~func =
  if Logic2.Cover.num_vars func <> Array.length fanins then
    invalid_arg "Network.add_node: function arity must match fanin count";
  Array.iter
    (fun f ->
      if f < 0 || f >= t.count then invalid_arg "Network.add_node: undefined fanin")
    fanins;
  let s = fresh t name in
  t.def.(s) <- Some { fanins; func };
  s

let mark_output t ?name s =
  if s < 0 || s >= t.count then invalid_arg "Network.mark_output: bad signal";
  let name = match name with Some n -> n | None -> t.signal_name.(s) in
  t.outputs_rev <- (name, s) :: t.outputs_rev

let find t name = Hashtbl.find_opt t.index name
let name_of t s = t.signal_name.(s)
let node_of t s = t.def.(s)
let is_input t s = t.def.(s) = None

let fanins t s = match t.def.(s) with Some n -> n.fanins | None -> [||]
let func t s =
  match t.def.(s) with
  | Some n -> n.func
  | None -> invalid_arg "Network.func: signal is a primary input"

let inputs t = Array.of_list (List.rev t.inputs_rev)
let outputs t = Array.of_list (List.rev t.outputs_rev)
let output_signals t = Array.map snd (outputs t)

(* Position of each input signal in the primary-input order. *)
let input_positions t =
  let ins = inputs t in
  let pos = Array.make t.count (-1) in
  Array.iteri (fun i s -> pos.(s) <- i) ins;
  pos

(* Signals in a valid topological order (construction order is one). *)
let topo_order t = Array.init t.count (fun s -> s)

let fanouts t =
  let out = Array.make t.count [] in
  for s = 0 to t.count - 1 do
    match t.def.(s) with
    | None -> ()
    | Some n -> Array.iter (fun f -> out.(f) <- s :: out.(f)) n.fanins
  done;
  Array.map List.rev out

(* Transitive fanin cone of the given roots (roots included). *)
let cone t roots =
  let in_cone = Array.make t.count false in
  let rec visit s =
    if not in_cone.(s) then begin
      in_cone.(s) <- true;
      match t.def.(s) with
      | None -> ()
      | Some n -> Array.iter visit n.fanins
    end
  in
  List.iter visit roots;
  in_cone

let num_nodes t =
  let c = ref 0 in
  for s = 0 to t.count - 1 do
    if t.def.(s) <> None then incr c
  done;
  !c

let num_literals t =
  let c = ref 0 in
  for s = 0 to t.count - 1 do
    match t.def.(s) with
    | None -> ()
    | Some n -> c := !c + Logic2.Cover.num_literals n.func
  done;
  !c

(* Evaluate all signals for one primary-input assignment (indexed by PI
   position). *)
let eval t pi_values =
  let ins = inputs t in
  if Array.length pi_values <> Array.length ins then
    invalid_arg "Network.eval: wrong number of input values";
  let value = Array.make t.count false in
  Array.iteri (fun i s -> value.(s) <- pi_values.(i)) ins;
  for s = 0 to t.count - 1 do
    match t.def.(s) with
    | None -> ()
    | Some n ->
      let local = Array.map (fun f -> value.(f)) n.fanins in
      value.(s) <- Logic2.Cover.eval n.func local
  done;
  value

let eval_outputs t pi_values =
  let value = eval t pi_values in
  Array.map (fun (_, s) -> value.(s)) (outputs t)

(* Global BDDs for every signal; BDD variable i is the i-th primary
   input. *)
let to_bdds ?(budget = Budget.unlimited) t =
  let ins = inputs t in
  let man = Bdd.create ~nvars:(Array.length ins) () in
  Bdd.set_budget man budget;
  let f = Array.make t.count Bdd.bfalse in
  Array.iteri (fun i s -> f.(s) <- Bdd.var man i) ins;
  for s = 0 to t.count - 1 do
    match t.def.(s) with
    | None -> ()
    | Some n ->
      let local = Array.map (fun x -> f.(x)) n.fanins in
      f.(s) <- Bdd.cover_with man n.func local
  done;
  (man, f)

(* A fresh network containing only the transitive fanin cones of the
   requested outputs (named subset of this network's outputs). *)
let extract_cone t keep_outputs =
  let outs = outputs t in
  let chosen =
    List.map
      (fun name ->
        match Array.find_opt (fun (n, _) -> n = name) outs with
        | Some (_, s) -> (name, s)
        | None -> invalid_arg (Printf.sprintf "extract_cone: no output %S" name))
      keep_outputs
  in
  let in_cone = cone t (List.map snd chosen) in
  let t' = create () in
  let remap = Array.make t.count (-1) in
  for s = 0 to t.count - 1 do
    if in_cone.(s) then
      remap.(s) <-
        (match t.def.(s) with
        | None -> add_input t' t.signal_name.(s)
        | Some n ->
          add_node t' t.signal_name.(s)
            ~fanins:(Array.map (fun f -> remap.(f)) n.fanins)
            ~func:n.func)
  done;
  List.iter (fun (name, s) -> mark_output t' ~name remap.(s)) chosen;
  t'

(* Exhaustive equivalence on BDDs: outputs matched by name, inputs by
   name too (missing inputs on either side are rejected). *)
let equivalent a b =
  let a_ins = Array.map (name_of a) (inputs a)
  and b_ins = Array.map (name_of b) (inputs b) in
  let sorted x = List.sort compare (Array.to_list x) in
  if sorted a_ins <> sorted b_ins then false
  else begin
    let man = Bdd.create ~nvars:(Array.length a_ins) () in
    (* Common variable order: a's input order; b maps by name. *)
    let var_of_name = Hashtbl.create 16 in
    Array.iteri (fun i n -> Hashtbl.replace var_of_name n i) a_ins;
    let bdds_of net =
      let f = Array.make (num_signals net) Bdd.bfalse in
      Array.iter
        (fun s -> f.(s) <- Bdd.var man (Hashtbl.find var_of_name (name_of net s)))
        (inputs net);
      Array.iter
        (fun s ->
          match node_of net s with
          | None -> ()
          | Some n ->
            f.(s) <- Bdd.cover_with man n.func (Array.map (fun x -> f.(x)) n.fanins))
        (topo_order net);
      f
    in
    let fa = bdds_of a and fb = bdds_of b in
    let outs_a = outputs a and outs_b = outputs b in
    let by_name outs name =
      Array.find_opt (fun (n, _) -> n = name) outs |> Option.map snd
    in
    Array.length outs_a = Array.length outs_b
    && Array.for_all
         (fun (name, sa) ->
           match by_name outs_b name with
           | Some sb -> fa.(sa) = fb.(sb)
           | None -> false)
         outs_a
  end

let pp fmt t =
  Format.fprintf fmt "network: %d inputs, %d outputs, %d nodes, %d literals"
    (Array.length (inputs t))
    (Array.length (outputs t))
    (num_nodes t) (num_literals t)
