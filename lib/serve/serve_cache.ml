(* The daemon's circuit cache: an LRU over loaded (parsed + mapped)
   circuits, keyed by content digest, with eco baseline snapshots
   memoized per (circuit, theta, band) on each entry.

   Keying by the digest of the source text (or the suite name) means
   "same netlist, different file name" is one entry, and an edited
   file is a clean miss — there is no invalidation protocol to get
   wrong. A circuit is charged by estimate (its source text plus a
   per-gate constant); an eco snapshot by the heap its BDD manager
   holds when it is cached ([Bdd.heap_words]), which dominates for
   snapshot-heavy entries.

   Locking: the table lock covers lookup/insert/evict bookkeeping
   only — never a parse, map or snapshot, so a slow load on one
   connection cannot stall cache hits on others. The per-entry lock
   serializes whole eco jobs ([with_eco_lock] wraps snapshot reuse
   *and* the recompute): every eco job on an entry shares the cached
   baseline's BDD manager, and the recompute mutates it, so two eco
   jobs on the same circuit run in sequence (on different circuits, in
   parallel). [snapshot_for] therefore assumes the caller holds the
   entry lock and takes only the table lock itself. Duplicate
   concurrent loads of one circuit are possible and harmless — last
   insert wins, the loser's work is garbage. *)

type entry = {
  key : string;
  job : Serve_jobs.entry;
  mutable bytes : int;  (** charged size: circuit estimate plus snapshots *)
  lock : Mutex.t;  (** serializes eco jobs (see [with_eco_lock]) *)
  mutable snaps : ((float * float option) * Eco.t) list;
      (** eco baselines by (theta, band) *)
  mutable stamp : int;  (** last-use tick for LRU eviction *)
}

type t = {
  cap_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  tlock : Mutex.t;
  mutable tick : int;
  mutable used : int;
}

let create ~cap_mb =
  {
    cap_bytes = cap_mb * 1024 * 1024;
    tbl = Hashtbl.create 64;
    tlock = Mutex.create ();
    tick = 0;
    used = 0;
  }

let key_of (c : Serve_jobs.circuit) =
  match c.Serve_jobs.source with
  | Some text -> Digest.to_hex (Digest.string text)
  | None -> "suite:" ^ c.Serve_jobs.spec

(* ~1 KiB per gate for the elaborated network + mapped realization is
   generous but the right order of magnitude. Being off by 2x only
   moves the eviction point, never correctness. *)
let per_gate_bytes = 1024

let estimate (c : Serve_jobs.circuit) (e : Serve_jobs.entry) =
  let src = match c.Serve_jobs.source with Some s -> String.length s | None -> 0 in
  src + (Network.num_signals e.Serve_jobs.e_net * per_gate_bytes)

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Evict least-recently-used entries until under capacity. Runs with
   the table lock held. *)
let evict_to_cap t =
  while t.used > t.cap_bytes && Hashtbl.length t.tbl > 1 do
    let victim =
      Hashtbl.fold
        (fun _ e acc ->
          match acc with
          | Some b when b.stamp <= e.stamp -> acc
          | _ -> Some e)
        t.tbl None
    in
    match victim with
    | None -> ()
    | Some e ->
      Hashtbl.remove t.tbl e.key;
      t.used <- t.used - e.bytes;
      Serve_metrics.incr Serve_metrics.cache_evictions
  done

(* The [lookup] the job runners get: LRU hit, or load + insert. *)
let find t (c : Serve_jobs.circuit) =
  let key = key_of c in
  let hit =
    locked t.tlock (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some e ->
          t.tick <- t.tick + 1;
          e.stamp <- t.tick;
          Some e
        | None -> None)
  in
  match hit with
  | Some e ->
    Serve_metrics.incr Serve_metrics.cache_hits;
    e
  | None ->
    Serve_metrics.incr Serve_metrics.cache_misses;
    let job = Serve_jobs.load_entry c in
    (* Force the mapping outside the table lock: a cached entry must
       be complete, or a hit would re-pay (and re-span) the map. *)
    ignore (Lazy.force job.Serve_jobs.e_mc);
    let entry =
      {
        key;
        job;
        bytes = estimate c job;
        lock = Mutex.create ();
        snaps = [];
        stamp = 0;
      }
    in
    locked t.tlock (fun () ->
        t.tick <- t.tick + 1;
        entry.stamp <- t.tick;
        (match Hashtbl.find_opt t.tbl key with
        | Some prev -> t.used <- t.used - prev.bytes
        | None -> ());
        Hashtbl.replace t.tbl key entry;
        t.used <- t.used + entry.bytes;
        evict_to_cap t);
    entry

let lookup t c = (find t c).job

(* Eco baseline memoization on a pinned [entry]. Runs with that
   entry's lock held (via [with_eco_lock]); only the size bookkeeping
   takes the table lock — and only charges the table if this exact
   entry is still the cached one (an entry evicted mid-job keeps its
   snapshot for the rest of the job, but the table does not pay for
   it). *)
let snapshot_on t (e : entry) : Serve_jobs.snapshot_for =
 fun ~theta ~band ~jobs ~budget d0 ->
  match List.assoc_opt (theta, band) e.snaps with
  | Some snap ->
    Serve_metrics.incr Serve_metrics.snap_hits;
    snap
  | None ->
    Serve_metrics.incr Serve_metrics.snap_misses;
    let snap = Eco.snapshot ~theta ?band ~jobs ~budget d0 in
    e.snaps <- ((theta, band), snap) :: e.snaps;
    locked t.tlock (fun () ->
        match Hashtbl.find_opt t.tbl e.key with
        | Some e' when e' == e ->
          let bytes = Bdd.heap_words snap.Eco.ctx.Spcf.Ctx.man * (Sys.word_size / 8) in
          e.bytes <- e.bytes + bytes;
          t.used <- t.used + bytes;
          evict_to_cap t
        | Some _ | None -> ());
    snap

(* Serialize an eco job on its entry: the cached baseline's BDD
   manager is shared between every job on this circuit, and the
   recompute mutates it. The entry is resolved ONCE and pinned for the
   whole job — the [lookup] and [snapshot_for] handed to [f] resolve
   this circuit to that same entry, never back through [find]. If
   cache pressure evicts and reloads the key mid-job, the reloaded
   entry has its own manager and its own lock, so a later job cannot
   share mutable state with this one; re-resolving here instead would
   let two jobs hold different entries' locks while touching one
   manager. Mutexes are not reentrant, so nothing inside [f] may
   re-lock — and nothing does. *)
let with_eco_lock t (c : Serve_jobs.circuit) f =
  let e = find t c in
  let lookup c' = if key_of c' = e.key then e.job else (find t c').job in
  locked e.lock (fun () -> f ~lookup ~snapshot_for:(snapshot_on t e))

let stats t =
  locked t.tlock (fun () -> (Hashtbl.length t.tbl, t.used, t.cap_bytes))
