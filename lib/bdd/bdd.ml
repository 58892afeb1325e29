(* Reduced ordered binary decision diagrams with a hash-consed unique
   table and an ite computed-table, per manager. Node handles are ints;
   0 and 1 are the terminals. Variables are 0 .. nvars-1 in fixed order.

   Storage (see DESIGN.md §8): flat int arrays for the node store, an
   open-addressing unique table with linear probing, and a lossy
   direct-mapped ite cache with packed keys — no atomics, no locks, no
   indirection on the hot path. A manager belongs to one domain at a
   time; callers that hand one across domains (the serve daemon's eco
   baselines) serialize every use behind a mutex, which also gives the
   happens-before the plain arrays need. *)

type t = int

let bfalse : t = 0
let btrue : t = 1

(* Hard ceiling on node ids so packed cache keys fit in one word. *)
let max_nodes = 1 lsl 30

(* Instrumentation probes (free when Obs is disabled). *)
let c_ite_calls = Obs.counter "bdd.ite.calls"
let c_ite_hits = Obs.counter "bdd.ite.cache_hits"
let c_ite_misses = Obs.counter "bdd.ite.cache_misses"
let c_unique_hits = Obs.counter "bdd.unique.hits"
let c_unique_inserts = Obs.counter "bdd.unique.inserts"
let c_unique_rehash = Obs.counter "bdd.unique.rehash_events"
let c_grow = Obs.counter "bdd.grow_events"
let c_nodes_max = Obs.counter "bdd.nodes.max"

(* Integer mix of a (var, low, high) triple: three odd multipliers from
   the murmur3/splitmix64 finalizers, then a 64-bit avalanche. The
   result may be negative; callers mask with [land] (the mask is
   positive, so the slot index always lands in range). *)
let[@inline] mix3 a b c =
  let h = (a * 0x9E3779B1) + (b * 0x85EBCA77) + (c * 0xC2B2AE3D) in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F165667C5 in
  h lxor (h lsr 32)

type man = {
  nvars : int;
  mutable var : int array; (* variable label per node; nvars for terminals *)
  mutable low : int array;
  mutable high : int array;
  mutable n_nodes : int;
  (* unique table: open addressing, capacity = umask + 1 (power of two) *)
  mutable utable : int array;
  mutable umask : int;
  (* ite computed table: direct-mapped, capacity = cmask + 1 *)
  mutable ck1 : int array;
  mutable ck2 : int array;
  mutable cres : int array;
  mutable cmask : int;
  mutable cgen : int; (* generation tag, < 2^30 *)
  cache_fixed : bool; (* explicit ~cache_bits: never resize (tests) *)
  mutable budget : Budget.t;
      (* resource governance; Budget.unlimited (the default) keeps the
         hot paths to a single physical-equality test *)
}

let cache_make bits =
  let cap = 1 lsl bits in
  (Array.make cap (-1), Array.make cap 0, Array.make cap 0, cap - 1)

let default_cache_bits = 14

(* The adaptive cache stops growing at 2^18 entries (6 MiB). A larger
   ceiling bought no time on the suite and cost the serve daemon a
   24 MiB cache per cached eco baseline (DESIGN.md §8). *)
let max_cache_bits = 18

let create ?cache_bits ~nvars () =
  if nvars < 0 then invalid_arg "Bdd.create: negative nvars";
  (match cache_bits with
  | Some b when b < 1 || b > max_cache_bits -> invalid_arg "Bdd.create: cache_bits"
  | _ -> ());
  let cbits, cache_fixed =
    match cache_bits with None -> (default_cache_bits, false) | Some b -> (b, true)
  in
  let cap = 1024 in
  let var = Array.make cap 0 and low = Array.make cap 0 and high = Array.make cap 0 in
  var.(0) <- nvars;
  var.(1) <- nvars;
  let ck1, ck2, cres, cmask = cache_make cbits in
  {
    nvars;
    var;
    low;
    high;
    n_nodes = 2;
    utable = Array.make 4096 0;
    umask = 4095;
    ck1;
    ck2;
    cres;
    cmask;
    cgen = 0;
    cache_fixed;
    budget = Budget.unlimited;
  }

let set_budget man b = man.budget <- b
let budget man = man.budget

let nvars man = man.nvars
let num_nodes man = man.n_nodes
let unique_capacity man = man.umask + 1
let cache_capacity man = man.cmask + 1

let heap_words man =
  (3 * Array.length man.var) + unique_capacity man + (3 * cache_capacity man)

(* Invalidate every computed-table entry in O(1): entries carry the
   generation in their second key word, so bumping the tag orphans them.
   The generation wraps at 2^30 to keep the packing in range — after
   2^30 clears an ancient entry could in principle alias, which is
   indistinguishable from an ordinary cache collision given the entry
   would also need matching keys. *)
let clear_caches man = man.cgen <- (man.cgen + 1) land (max_nodes - 1)

let var_of man n = man.var.(n)
let low_of man n = man.low.(n)
let high_of man n = man.high.(n)
let is_terminal n = n < 2

(* Unchecked accessors for the traversal paths. *)
let[@inline] ivar man n = Array.unsafe_get man.var n
let[@inline] ilow man n = Array.unsafe_get man.low n
let[@inline] ihigh man n = Array.unsafe_get man.high n

(* ---------- mk / ite ---------- *)

let grow_nodes man =
  Obs.incr c_grow;
  Obs.instant "bdd.grow";
  let cap = Array.length man.var in
  if cap >= max_nodes then failwith "Bdd: node limit (2^30) exceeded";
  let cap' = cap * 2 in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  man.var <- extend man.var;
  man.low <- extend man.low;
  man.high <- extend man.high

(* Double the unique table and reinsert every interned node. Insertion
   scans for the first empty slot — no deletions ever happen, so there
   are no tombstones and every probe chain is a contiguous run. *)
let unique_rehash man =
  Obs.incr c_unique_rehash;
  Obs.instant "bdd.unique.rehash";
  let mask' = ((man.umask + 1) * 2) - 1 in
  let t' = Array.make (mask' + 1) 0 in
  for n = 2 to man.n_nodes - 1 do
    let i = ref (mix3 man.var.(n) man.low.(n) man.high.(n) land mask') in
    while Array.unsafe_get t' !i <> 0 do
      i := (!i + 1) land mask'
    done;
    Array.unsafe_set t' !i n
  done;
  man.utable <- t';
  man.umask <- mask';
  (* Let the lossy ite cache track the unique table up to a ceiling:
     dropping the resident entries is sound (it is a cache) and growth
     events are logarithmically rare, so there are no rehash storms. *)
  if (not man.cache_fixed) && man.cmask + 1 < 1 lsl max_cache_bits && man.cmask < mask'
  then begin
    let bits =
      let rec bits_of n acc = if n <= 1 then acc else bits_of (n lsr 1) (acc + 1) in
      min max_cache_bits (bits_of (mask' + 1) 0)
    in
    let ck1, ck2, cres, cmask = cache_make bits in
    man.ck1 <- ck1;
    man.ck2 <- ck2;
    man.cres <- cres;
    man.cmask <- cmask
  end

(* Hash-consing find-or-insert. One probe sequence serves both the
   lookup and the insertion point: the first empty slot terminates an
   unsuccessful probe and is exactly where the new node id goes. *)
let mk man v lo hi =
  if lo = hi then lo
  else begin
    let table = man.utable and mask = man.umask in
    let var = man.var and low = man.low and high = man.high in
    let i = ref (mix3 v lo hi land mask) in
    let found = ref (-1) in
    let scanning = ref true in
    while !scanning do
      let n = Array.unsafe_get table !i in
      if n = 0 then scanning := false
      else if
        Array.unsafe_get var n = v
        && Array.unsafe_get low n = lo
        && Array.unsafe_get high n = hi
      then begin
        found := n;
        scanning := false
      end
      else i := (!i + 1) land mask
    done;
    if !found >= 0 then begin
      Obs.incr c_unique_hits;
      !found
    end
    else begin
      Obs.incr c_unique_inserts;
      if man.n_nodes >= Array.length man.var then grow_nodes man;
      let n = man.n_nodes in
      man.var.(n) <- v;
      man.low.(n) <- lo;
      man.high.(n) <- hi;
      man.n_nodes <- n + 1;
      if man.budget != Budget.unlimited then Budget.check_nodes man.budget (n + 1);
      Obs.record_max c_nodes_max (n + 1);
      Array.unsafe_set table !i n;
      if (man.n_nodes - 2) * 4 > (mask + 1) * 3 then unique_rehash man;
      n
    end
  end

(* Cofactors of [n] w.r.t. variable [v], assuming v <= var(n). *)
let cofactors man v n =
  if man.var.(n) = v then (man.low.(n), man.high.(n)) else (n, n)

let rec ite man f g h =
  if f = btrue then g
  else if f = bfalse then h
  else if g = h then g
  else if g = btrue && h = bfalse then f
  else begin
    Obs.incr c_ite_calls;
    if man.budget != Budget.unlimited then Budget.tick man.budget;
    let k1 = (f lsl 31) lor g and k2 = (man.cgen lsl 31) lor h in
    let slot = mix3 f g h land man.cmask in
    if Array.unsafe_get man.ck1 slot = k1 && Array.unsafe_get man.ck2 slot = k2 then begin
      Obs.incr c_ite_hits;
      Array.unsafe_get man.cres slot
    end
    else begin
      Obs.incr c_ite_misses;
      let v = min man.var.(f) (min man.var.(g) man.var.(h)) in
      let f0, f1 = cofactors man v f in
      let g0, g1 = cofactors man v g in
      let h0, h1 = cofactors man v h in
      let r1 = ite man f1 g1 h1 in
      let r0 = ite man f0 g0 h0 in
      let r = mk man v r0 r1 in
      (* The cache may have been resized during the recursion: recompute
         the slot against the current mask before storing. *)
      let slot = mix3 f g h land man.cmask in
      man.ck1.(slot) <- k1;
      man.ck2.(slot) <- k2;
      man.cres.(slot) <- r;
      r
    end
  end

let var man v =
  if v < 0 || v >= man.nvars then invalid_arg "Bdd.var: out of range";
  mk man v bfalse btrue

let nvar man v =
  if v < 0 || v >= man.nvars then invalid_arg "Bdd.nvar: out of range";
  mk man v btrue bfalse

let bnot man f = ite man f bfalse btrue
let band man f g = ite man f g bfalse
let bor man f g = ite man f btrue g
let bxor man f g = ite man f (bnot man g) g
let bnand man f g = bnot man (band man f g)
let bnor man f g = bnot man (bor man f g)
let bxnor man f g = bnot man (bxor man f g)
let bimply man f g = ite man f g btrue

let band_list man = List.fold_left (band man) btrue
let bor_list man = List.fold_left (bor man) bfalse

let rec eval man f assignment =
  if f = btrue then true
  else if f = bfalse then false
  else if assignment.(ivar man f) then eval man (ihigh man f) assignment
  else eval man (ilow man f) assignment

(* Bit-parallel evaluation: [var_words.(v)] packs variable v across
   patterns, one per bit; the result packs f across the same patterns.
   One memoized DAG walk replaces a per-pattern descent. *)
let eval_vec man f var_words =
  if Array.length var_words <> man.nvars then
    invalid_arg "Bdd.eval_vec: wrong number of variable words";
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    if n = bfalse then 0
    else if n = btrue then -1
    else
      match Hashtbl.find_opt memo n with
      | Some w -> w
      | None ->
        let vw = var_words.(ivar man n) in
        let hi = go (ihigh man n) in
        let lo = go (ilow man n) in
        let w = vw land hi lor (lnot vw land lo) in
        Hashtbl.add memo n w;
        w
  in
  go f

let iter_nodes man fn =
  for n = 2 to man.n_nodes - 1 do
    fn n man.var.(n) man.low.(n) man.high.(n)
  done

let size man f =
  let seen = Hashtbl.create 64 in
  let rec walk n =
    if not (is_terminal n || Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      walk (ilow man n);
      walk (ihigh man n)
    end
  in
  walk f;
  Hashtbl.length seen + 2

let support man f =
  let seen = Hashtbl.create 64 in
  let vars = Array.make man.nvars false in
  let rec walk n =
    if not (is_terminal n || Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      vars.(ivar man n) <- true;
      walk (ilow man n);
      walk (ihigh man n)
    end
  in
  walk f;
  vars

(* Minterm count over all nvars variables, in extended-range arithmetic.
   count(n) counts assignments of variables var(n) .. nvars-1; the root
   result is then scaled by 2^var(root). *)
let satcount man f =
  let memo = Hashtbl.create 64 in
  let rec count n =
    if n = bfalse then Extfloat.zero
    else if n = btrue then Extfloat.one
    else
      match Hashtbl.find_opt memo n with
      | Some c -> c
      | None ->
        let v = ivar man n in
        let branch child = Extfloat.mul_pow2 (count child) (ivar man child - v - 1) in
        let c = Extfloat.add (branch (ilow man n)) (branch (ihigh man n)) in
        Hashtbl.add memo n c;
        c
  in
  if f = bfalse then Extfloat.zero else Extfloat.mul_pow2 (count f) (ivar man f)

(* One satisfying (partial) assignment as (var, value) literals. *)
let any_sat man f =
  if f = bfalse then None
  else begin
    let rec descend n acc =
      if n = btrue then acc
      else if ihigh man n <> bfalse then descend (ihigh man n) ((ivar man n, true) :: acc)
      else descend (ilow man n) ((ivar man n, false) :: acc)
    in
    Some (List.rev (descend f []))
  end

(* Uniformly sample a full minterm of f, weighting branch choice by
   satcount. [rand_float ()] must be uniform in [0,1). *)
let sample_sat man f ~rand_float =
  if f = bfalse then None
  else begin
    let assignment = Array.make man.nvars false in
    let flip v = assignment.(v) <- rand_float () < 0.5 in
    let rec descend n next_var =
      if n = btrue then
        for v = next_var to man.nvars - 1 do
          flip v
        done
      else begin
        let v = ivar man n in
        for u = next_var to v - 1 do
          flip u
        done;
        let c_lo = satcount man (ilow man n) and c_hi = satcount man (ihigh man n) in
        let total = Extfloat.add c_lo c_hi in
        (* P(high) = c_hi / total, computed in extended range. *)
        let p_hi =
          if Extfloat.is_zero c_hi then 0.
          else Extfloat.to_float (Extfloat.div c_hi total)
        in
        let take_hi = rand_float () < p_hi in
        assignment.(v) <- take_hi;
        descend (if take_hi then ihigh man n else ilow man n) (v + 1)
      end
    in
    (* satcount of subnodes counts vars below var(n); using the manager
       satcount keeps results consistent since the 2^k factors cancel in
       the ratio only if both children start at the same depth — they do,
       because both counts are scaled to full nvars here. *)
    descend f 0;
    Some assignment
  end

(* Existential quantification over the variables marked true in [vars]. *)
let exists man vars f =
  let memo = Hashtbl.create 64 in
  let rec ex n =
    if is_terminal n then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let v = ivar man n in
        let lo = ex (ilow man n) and hi = ex (ihigh man n) in
        let r = if vars.(v) then bor man lo hi else mk man v lo hi in
        Hashtbl.add memo n r;
        r
  in
  ex f

let forall man vars f = bnot man (exists man vars (bnot man f))

(* Restrict variable v to a constant. *)
let restrict man f v value =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n || ivar man n > v then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let r =
          if ivar man n = v then if value then ihigh man n else ilow man n
          else mk man (ivar man n) (go (ilow man n)) (go (ihigh man n))
        in
        Hashtbl.add memo n r;
        r
  in
  go f

(* Simultaneous substitution: variable i is replaced by subs.(i). *)
let compose_vec man f subs =
  if Array.length subs <> man.nvars then
    invalid_arg "Bdd.compose_vec: substitution arity mismatch";
  let memo = Hashtbl.create 64 in
  let rec go n =
    if is_terminal n then n
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
        let r = ite man subs.(ivar man n) (go (ihigh man n)) (go (ilow man n)) in
        Hashtbl.add memo n r;
        r
  in
  go f

(* A cube over BDD inputs given as function handles: AND of literals with
   each variable v standing for inputs.(v). *)
let cube_with man cube inputs =
  List.fold_left
    (fun acc (v, ph) ->
      let lit = if ph then inputs.(v) else bnot man inputs.(v) in
      band man acc lit)
    btrue (Logic2.Cube.literals cube)

let cover_with man cover inputs =
  List.fold_left
    (fun acc c -> bor man acc (cube_with man c inputs))
    bfalse
    (Logic2.Cover.cubes cover)

(* Direct encodings where cover variable i is BDD variable i. *)
let of_cube man cube =
  cube_with man cube (Array.init man.nvars (fun v -> var man v))

let of_cover man cover =
  cover_with man cover (Array.init man.nvars (fun v -> var man v))

(* --- cross-manager transport -----------------------------------------

   A BDD is exported as a postorder DAG over plain integers: ids 0/1 are
   the terminals, internal node i (array index) has id i + 2, and
   children always precede parents. The encoding depends only on the
   function and the variable order, never on handle numbering, so it is
   both the emask-eco/1 persistence format and a canonical
   cross-manager comparison. Import replays the array bottom-up with
   ite(var v, high, low) = the node (v, low, high), which re-canonizes
   the function inside the destination manager. *)

type dag = int array * int array * int array * int

let export man root : dag =
  if is_terminal root then ([||], [||], [||], root)
  else begin
    let ids : (t, int) Hashtbl.t = Hashtbl.create 256 in
    let acc = ref [] and count = ref 0 in
    (* Depth is bounded by the variable order (nvars), so plain
       recursion is safe. *)
    let rec walk n =
      if (not (is_terminal n)) && not (Hashtbl.mem ids n) then begin
        Hashtbl.add ids n (-1);
        walk (low_of man n);
        walk (high_of man n);
        Hashtbl.replace ids n (!count + 2);
        incr count;
        acc := n :: !acc
      end
    in
    walk root;
    let nodes = Array.of_list (List.rev !acc) in
    let id n = if is_terminal n then n else Hashtbl.find ids n in
    ( Array.map (var_of man) nodes,
      Array.map (fun n -> id (low_of man n)) nodes,
      Array.map (fun n -> id (high_of man n)) nodes,
      id root )
  end

let import man ((vars, lows, highs, root) : dag) =
  if root = 0 then bfalse
  else if root = 1 then btrue
  else begin
    let n = Array.length vars in
    let handle = Array.make (n + 2) bfalse in
    handle.(1) <- btrue;
    for i = 0 to n - 1 do
      handle.(i + 2) <- ite man (var man vars.(i)) handle.(highs.(i)) handle.(lows.(i))
    done;
    handle.(root)
  end
