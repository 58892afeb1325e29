(* The repository benchmark: one workload per run, end-to-end metrics
   with tracing off (--trace 0) or per-layer metrics from a traced run
   (--trace 1). See README.md for the workloads, the metrics and how
   they relate.

     bench.exe --workload W --seed N --seconds S --trace 0|1
     bench.exe --self-test      two traced runs per workload, same seed:
                                the Obs op counters must be identical
     bench.exe --print-digests  digests of the seed-independent outputs

   Run from the repository root (perfbench/run.sh does), after building
   bin/emask.exe. The last stdout line is the JSON result. *)

let out_dir = "perfbench/out"
let emask = "_build/default/bin/emask.exe"
let digests_file = "perfbench/digests.txt"

(* --- rendering --------------------------------------------------------------- *)

(* In-process rendering of a request through the runners the CLI and
   the daemon share. [lookup] decides between a cold load (the CLI)
   and a cache (the daemon); [snapshot_for] likewise for eco. *)
let render ?snapshot_for ~lookup (req : Serve_protocol.request) =
  let buf = Buffer.create 4096 in
  let code =
    match req with
    | Serve_protocol.Spcf (c, r, b) -> Serve_jobs.run_spcf ~note:None buf lookup c r b
    | Serve_protocol.Paths (c, r, b) -> Serve_jobs.run_paths ~note:None buf lookup c r b
    | Serve_protocol.Protect (c, r, b) ->
      Serve_jobs.run_protect ~note:None buf lookup c r b
    | Serve_protocol.Lint (c, r) -> Serve_jobs.run_lint ~note:None buf c r
    | Serve_protocol.Eco (c, r, b) ->
      Serve_jobs.run_eco ~note:None ?snapshot_for buf lookup c r b
    | Serve_protocol.Ping _ | Serve_protocol.Metrics | Serve_protocol.Shutdown ->
      invalid_arg "render"
  in
  (code, Buffer.contents buf)

(* The served twin of [render], with the daemon's own eco locking. *)
let render_cached cache (req : Serve_protocol.request) =
  match req with
  | Serve_protocol.Eco (c, _, _) ->
    Serve_cache.with_eco_lock cache c (fun ~lookup ~snapshot_for ->
        render ~snapshot_for ~lookup req)
  | _ -> render ~lookup:(Serve_cache.lookup cache) req

let circuit_of (req : Serve_protocol.request) =
  match req with
  | Serve_protocol.Spcf (c, _, _)
  | Serve_protocol.Paths (c, _, _)
  | Serve_protocol.Protect (c, _, _)
  | Serve_protocol.Eco (c, _, _)
  | Serve_protocol.Lint (c, _) ->
    c
  | Serve_protocol.Ping _ | Serve_protocol.Metrics | Serve_protocol.Shutdown ->
    invalid_arg "circuit_of"

let describe_exn e =
  match Serve_jobs.error_code e with
  | Some (code, msg) -> code ^ ": " ^ msg
  | None -> Printexc.to_string e

let roundtrip (d : Daemon.t) req =
  match Serve_client.roundtrip d.Daemon.endpoint req with
  | Serve_protocol.Ok_output (code, text) -> Ok (code, text)
  | Serve_protocol.Rejected (code, msg) -> Error ("rejected " ^ code ^ ": " ^ msg)
  | Serve_protocol.Error_resp (code, msg) -> Error ("error " ^ code ^ ": " ^ msg)
  | exception e -> Error (describe_exn e)

(* The spcf "runtime: x.xxxs" tail is wall-clock noise between any two
   runs of one job; it is masked before comparing or digesting. *)
let normalize text =
  let marker = "  runtime: " in
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let n = String.length marker in
         let rec find i =
           if i + n > String.length line then None
           else if String.sub line i n = marker then Some i
           else find (i + 1)
         in
         match find 0 with Some i -> String.sub line 0 i ^ marker ^ "<t>" | None -> line)
  |> String.concat "\n"

let digest_of (code, text) =
  Digest.to_hex (Digest.string (string_of_int code ^ "\n" ^ normalize text))

(* --- the timed closed loop ----------------------------------------------------- *)

type sample = {
  job : Workload.job;
  req_id : int;
  round : int;
  lat : float;  (** seconds *)
  result : (int * string, string) result;
}

(* One caller, closed loop: the next job is sent when the previous one
   has completed. Jobs come from a sequence of rounds; once [seconds]
   of measured time (time left out does not count) have passed,
   [min_samples] jobs and [min_rounds] rounds have run, no
   new round starts, so a run measures whole rounds and every run sees
   the same mix. The floor keeps at least ten samples beyond the p90.

   Wall time and [cpu ()] are read as each round starts and ends,
   giving per-round throughput and CPU per job: the run reports their
   medians, so a burst of load from outside the benchmark that hits a
   round or two does not move the figures. [reset] runs before every
   job, and [before_round] / [after_round] around every round; their
   wall and CPU time are left out. [after_round] gets the round's
   request ids. *)
let min_samples = 100

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type round_stat = { r_wall : float; r_cpu : float; r_jobs : int }

let closed_loop ?(reset = ignore) ?(before_round = ignore) ?(after_round = fun _ _ -> ())
    ?(first_req = 0) ?(min_rounds = 1) wl ~seconds ~cpu ~exec =
  let samples = ref [] and rounds = ref [] and req_id = ref first_req in
  let left_out_wall = ref 0. and left_out_cpu = ref 0. in
  let left_out f =
    let w = Obs.now () and c = process_cpu () in
    f ();
    left_out_wall := !left_out_wall +. (Obs.now () -. w);
    left_out_cpu := !left_out_cpu +. (process_cpu () -. c)
  in
  let clock () = (Obs.now () -. !left_out_wall, cpu () -. !left_out_cpu) in
  let deadline = Obs.now () +. seconds in
  let r = ref 0 in
  while fst (clock ()) < deadline || !req_id - first_req < min_samples || !r < min_rounds do
    let round = !r in
    let jobs = Workload.round wl round in
    let first = !req_id + 1 in
    left_out (fun () -> before_round round);
    let w0, c0 = clock () in
    Array.iter
      (fun (job : Workload.job) ->
        left_out reset;
        incr req_id;
        let s = Obs.now () in
        let result = exec ~round ~req_id:!req_id job in
        let lat = Obs.now () -. s in
        samples := { job; req_id = !req_id; round; lat; result } :: !samples)
      jobs;
    let w1, c1 = clock () in
    rounds := { r_wall = w1 -. w0; r_cpu = c1 -. c0; r_jobs = Array.length jobs } :: !rounds;
    left_out (fun () -> after_round round (List.init (Array.length jobs) (fun i -> first + i)));
    incr r
  done;
  (List.rev !samples, List.rev !rounds)

(* --- output checks (after the timed phase) --------------------------------------- *)

let load_digests () =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text digests_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | key :: digest :: _ -> Hashtbl.replace tbl key digest
         | _ -> ());
  tbl

(* protect must report equivalence, coverage and prediction, with the
   paper's >= 20 % slack for the masking circuit. *)
let protect_ok text =
  let has s =
    let n = String.length s in
    let rec go i = i + n <= String.length text && (String.sub text i n = s || go (i + 1)) in
    go 0
  in
  let slack =
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           try Some (Scanf.sscanf l "delta %_f -> masking %_f (slack %f%%" Fun.id)
           with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  in
  has "equiv=true coverage=true(" && has " prediction=true "
  && match slack with Some s -> s >= 20. | None -> false

let eco_check_line = "check: incremental = full recompute (canonical forms identical)"

(* The reference a served response must equal: the one-shot rendering
   of the same request. For eco it is rendered with the eco-equal
   oracle on (a from-scratch snapshot of the edited design must have
   the same canonical form), and the oracle's line is then stripped;
   its baseline comes from [snapshot_for], one fresh snapshot per
   circuit computed by the checker, as the daemon memoizes its own. *)
let reference ~snapshot_for (job : Workload.job) =
  match job.Workload.req with
  | Serve_protocol.Eco (c, r, b) -> (
    let req = Serve_protocol.Eco (c, { r with Serve_jobs.c_check = true }, b) in
    let code, text =
      render ~snapshot_for:(snapshot_for c.Serve_jobs.spec) ~lookup:Serve_jobs.load_entry req
    in
    let suffix = eco_check_line ^ "\n" in
    let n = String.length text and k = String.length suffix in
    match code = 0 && n >= k && String.sub text (n - k) k = suffix with
    | true -> Ok (code, String.sub text 0 (n - k))
    | false -> Error "eco-equal oracle: incremental differs from a full recompute")
  | req -> Ok (render ~lookup:Serve_jobs.load_entry req)

let baseline_memo () =
  let memo = Hashtbl.create 8 in
  fun spec : Serve_jobs.snapshot_for ->
   fun ~theta ~band ~jobs ~budget d0 ->
    let key = (spec, theta, band) in
    match Hashtbl.find_opt memo key with
    | Some t -> t
    | None ->
      let t = Eco.snapshot ~theta ?band ~jobs ~budget d0 in
      Hashtbl.replace memo key t;
      t

(* Check every sample; returns the failures as (job label, reason).
   With [vs_oneshot], each output must also equal the one-shot
   reference rendering of its request. *)
let check_samples ~vs_oneshot samples =
  let digests = load_digests () in
  let refs = Hashtbl.create 64 in
  let snapshot_for = baseline_memo () in
  let ref_of (job : Workload.job) =
    match Hashtbl.find_opt refs job.Workload.key with
    | Some r -> r
    | None ->
      let r =
        try Result.map digest_of (reference ~snapshot_for job) with e -> Error (describe_exn e)
      in
      Hashtbl.replace refs job.Workload.key r;
      r
  in
  List.filter_map
    (fun s ->
      let job = s.job in
      let fail why = Some (job.Workload.label, why) in
      match s.result with
      | Error e -> fail e
      | Ok (code, text) -> (
        let out = (code, text) in
        let vs_ref =
          if not vs_oneshot then None
          else
            match ref_of job with
            | Error e -> Some e
            | Ok r when r <> digest_of out -> Some "differs from the one-shot rendering"
            | Ok _ -> None
        in
        match vs_ref with
        | Some e -> fail e
        | None ->
          if job.Workload.job_kind = "protect" && not (protect_ok text) then
            fail "protect: equiv/coverage/prediction or 20 % slack not met"
          else if job.Workload.fixed then
            match Hashtbl.find_opt digests job.Workload.key with
            | None -> fail "no digest recorded at the seed commit"
            | Some d when d <> digest_of out -> fail "differs from the seed-commit digest"
            | Some _ -> None
          else None))
    samples

(* --- statistics ------------------------------------------------------------------ *)

(* Nearest-rank quantile of a non-empty sample. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median xs = quantile 0.5 xs

let frac num den = if den = 0 then 0. else float num /. float den

let mean = function [] -> 0. | xs -> List.fold_left ( +. ) 0. xs /. float (List.length xs)

let ms x = 1000. *. x

(* --- set-up ---------------------------------------------------------------------- *)

(* oneshot-cold set-up: starting the binary and initialising its
   libraries, as a CLI user pays it on every run. One start takes about
   2 ms, and starts taken in one go moved by 30 % with the host from one
   batch to the next, so the run times [spawn_reps] starts before the
   timed phase and [spawn_reps] more after every round (left out of the
   timed figures), and reports the median of them all. *)
let spawn_reps = 5

let emask_start () =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Obs.now () in
  let pid = Unix.create_process emask [| emask; "list" |] null null null in
  let _, st = Daemon.waitpid_noeintr [] pid in
  let dt = Obs.now () -. t0 in
  Unix.close null;
  if st <> Unix.WEXITED 0 then failwith "emask list failed";
  dt

let emask_starts () = List.init spawn_reps (fun _ -> emask_start ())

let cache_mb = Serve.default_config.Serve.cache_mb

(* serve-eco set-up, in-process: a fresh cache of the daemon's size and
   the warm-up pass that fills its circuit LRU and snapshot memo, done
   [warm_reps] times. Each cache is dropped and collected before the
   next is built, so the process's peak RSS is that of one cache; the
   last one serves the run. *)
let warm_reps = 5

let warm_cache wl =
  let once () =
    let cache = Serve_cache.create ~cap_mb:cache_mb in
    let t0 = Obs.now () in
    List.iter
      (fun (job : Workload.job) ->
        try ignore (render_cached cache job.Workload.req)
        with e -> failwith ("warm-up " ^ job.Workload.label ^ ": " ^ describe_exn e))
      (Workload.warmup wl);
    (cache, Obs.now () -. t0)
  in
  let rec go i acc =
    let cache, dt = once () in
    if i + 1 < warm_reps then begin
      Gc.full_major ();
      go (i + 1) (dt :: acc)
    end
    else (cache, dt :: acc)
  in
  go 0 []

(* The daemon's set-up: spawn-to-listening plus the warm-up pass.
   Returns the warm daemon and the time. *)
let serve_setup wl =
  let d, ready = Daemon.start ~emask ~root:out_dir ~workers:1 in
  let t0 = Obs.now () in
  List.iter
    (fun (job : Workload.job) ->
      match roundtrip d job.Workload.req with
      | Ok _ -> ()
      | Error e -> failwith ("warm-up " ^ job.Workload.label ^ ": " ^ e))
    (Workload.warmup wl);
  (d, ready +. (Obs.now () -. t0))

(* --- one run ------------------------------------------------------------------------ *)

type opts = {
  workload : Workload.kind;
  seed : int;
  seconds : float;
  trace : bool;
}

let host_facts () =
  let commit =
    if Sys.file_exists ".git" then
      try
        let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "--short"; "HEAD" |] in
        let c = try input_line ic with End_of_file -> "unknown" in
        ignore (Unix.close_process_in ic);
        c
      with _ -> "unknown"
    else "unknown"
  in
  Printf.printf "host: nproc %d  ocaml %s  commit %s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version commit

let print_metric (name, value, unit) = Printf.printf "  %-32s %14.4f %s\n" name value unit

let emit ~correct ~attempted ~failed metrics =
  let open Obs_json in
  let finite v = if Float.is_finite v then v else 0. in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int attempted);
            ("failed", Int failed);
            ( "metrics",
              Obj
                (List.map
                   (fun (n, v, u) -> (n, Obj [ ("value", Float (finite v)); ("unit", String u) ]))
                   metrics) );
          ]))

let report_failures failures =
  List.iteri
    (fun i (label, why) -> if i < 10 then Printf.printf "FAIL %s: %s\n" label why)
    failures

let round_rate r = float r.r_jobs /. r.r_wall

(* Latency per kind of job and circuit, generated circuits together,
   slowest first: where the pooled quantiles fall. *)
let print_latency_table samples =
  let acc = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let c = circuit_of s.job.Workload.req in
      let key =
        s.job.Workload.job_kind ^ " "
        ^ if c.Serve_jobs.source = None then c.Serve_jobs.spec else "<generated>"
      in
      Hashtbl.replace acc key (s.lat :: Option.value ~default:[] (Hashtbl.find_opt acc key)))
    samples;
  Printf.printf "latency by job (count, mean ms, p10, p50, p90):\n";
  Hashtbl.fold (fun k l a -> (k, l) :: a) acc []
  |> List.sort (fun (_, a) (_, b) -> compare (mean b) (mean a))
  |> List.iter (fun (k, l) ->
         Printf.printf "  %-32s %8d %10.3f %10.3f %10.3f %10.3f\n" k (List.length l)
           (ms (mean l)) (ms (quantile 0.1 l)) (ms (median l)) (ms (quantile 0.9 l)))

(* A CLI run starts every job on a fresh heap: in-process, a full major
   collection before each job stands in for that, so one job's garbage
   is not charged to the next and job order does not move the
   figures. *)
let oneshot_reset = Gc.full_major

(* The end-to-end run: tracing off, the in-process runners doing the
   work, in the benchmark process: with a cold load per job as the CLI
   runs them (oneshot-cold), or through a warm cache of the daemon's
   own kind, its LRU, eco lock and snapshot memo, as a warm daemon runs
   them (serve-eco). Through a child daemon's socket, serve-eco's
   throughput and median moved by up to a half from run to run with the
   shared host's scheduling (README.md); the daemon's own round trip is
   measured by the traced run. *)
let end_to_end o wl =
  let oneshot = o.workload = Workload.Oneshot_cold in
  let setups = ref [] in
  let cache =
    if oneshot then begin
      setups := emask_starts ();
      None
    end
    else begin
      let cache, times = warm_cache wl in
      setups := times;
      Some cache
    end
  in
  let after_round _ _ = if oneshot then setups := emask_starts () @ !setups in
  let exec ~round:_ ~req_id:_ (job : Workload.job) =
    try
      Ok
        (match cache with
        | Some cache -> render_cached cache job.Workload.req
        | None -> render ~lookup:Serve_jobs.load_entry job.Workload.req)
    with e -> Error (describe_exn e)
  in
  let reset = if oneshot then oneshot_reset else ignore in
  let samples, rounds =
    closed_loop ~reset ~after_round wl ~seconds:o.seconds ~cpu:process_cpu ~exec
  in
  let setup_s = median !setups in
  Printf.printf "set-up: median of %d (s): %s\n" (List.length !setups)
    (String.concat " " (List.map (Printf.sprintf "%.4f") (List.rev !setups)));
  let rss = Daemon.rss_peak_mb (Unix.getpid ()) in
  let failures = check_samples ~vs_oneshot:(not oneshot) samples in
  report_failures failures;
  let attempted = List.length samples and failed = List.length failures in
  let lats = List.map (fun s -> s.lat) samples in
  let elapsed = List.fold_left (fun a r -> a +. r.r_wall) 0. rounds in
  Printf.printf "workload %s  seed %d  %d jobs in %d rounds, %.3f s  (tracing off)\n"
    (Workload.name o.workload) o.seed attempted (List.length rounds) elapsed;
  let p90 = quantile 0.9 lats in
  let metrics =
    [
      ( "jobs_per_s",
        median (List.map round_rate rounds) *. float (attempted - failed) /. float attempted,
        "1/s" );
      ("latency_p50_ms", ms (median lats), "ms");
      ("latency_p90_ms", ms p90, "ms");
      ("cpu_ms_per_job", ms (median (List.map (fun r -> r.r_cpu /. float r.r_jobs) rounds)), "ms");
      ("rss_peak_mb", rss, "MiB");
      ("setup_s", setup_s, "s");
    ]
  in
  Printf.printf "rounds (jobs/s): %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.1f" (round_rate r)) rounds));
  print_latency_table samples;
  Printf.printf "end-to-end metrics (latency over %d samples; %d beyond p90):\n" attempted
    (List.length (List.filter (fun l -> l > p90) lats));
  List.iter print_metric metrics;
  print_metric ("fail_frac", frac failed attempted, "frac");
  emit ~correct:(failed = 0) ~attempted ~failed metrics

(* --- the traced run ------------------------------------------------------------------ *)

(* The Obs op counters the traced run reports; they must repeat exactly
   for one seed (see --self-test). *)
let exact_counter_prefixes = [ "bdd."; "spcf."; "synthesis.cubes."; "sens."; "eco." ]

let is_exact name =
  List.exists (fun p -> String.starts_with ~prefix:p name) exact_counter_prefixes

(* The program's own spans for the layer entry points, outermost
   first where they nest: "load" is [Serve_jobs.load_entry]
   ([Suite.load], or parse, preflight and elaborate of an inline
   circuit), "spcf.ctx.create" contains "sta.analyze" and
   "network.to_bdds", "synthesis" contains its own map, ctx and SPCF,
   "verify" contains "power", and "eco.baseline" is the snapshot (or
   its memo lookup). A job's time outside these spans is its
   residual. *)
let layer_spans =
  [
    "load"; "map"; "spcf.ctx.create"; "spcf.short-path-based"; "sens.analyze"; "synthesis";
    "verify"; "eco.baseline"; "eco.recompute";
  ]

(* What the traced pass gathers. *)
type trace_acc = {
  mutable spans : Spans.span list;  (** newest first *)
  mutable counters : (string * int) list;  (** the first traced round's *)
  jobs : (int, Workload.job) Hashtbl.t;  (** by request id *)
}

let traced_round r = r mod 2 = 1

(* Obs collection and tracing on from an empty state; [stop_tracing]
   turns them off, keeps the spans of [reqs] (one "job" span each) and
   returns the exact op counters. *)
let start_tracing () =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.set_trace_enabled true

let stop_tracing acc ~reqs =
  Obs.set_trace_enabled false;
  Obs.set_enabled false;
  acc.spans <- List.rev_append (Spans.of_events ~reqs (Obs.trace_events ())) acc.spans;
  let counters = List.filter (fun (n, _) -> is_exact n) (Obs.registered_counters ()) in
  Obs.reset ();
  counters

(* The traced run. The real runners run in-process, as the CLI runs
   them (oneshot-cold) or as the daemon runs them, through the
   daemon's own cache and eco locking (serve workloads), in the same
   closed loop as the end-to-end run: odd rounds run with the program's
   Obs spans, counters and trace events on, even rounds with them off.
   The spans of the traced rounds (and of the warm-up, where a warm
   daemon pays its loads and eco snapshots) give the layer times, the
   first traced round gives the exact op counters, and traced minus
   untraced throughput, both as medians over rounds, gives the
   overhead. For the serve workloads, round 0 is then sent to a warm
   daemon: roundtrip times, the serve overhead against the in-process
   run of the same request, and /metrics scrapes around it for the
   cache hit shares. *)
let traced o wl =
  let served = o.workload <> Workload.Oneshot_cold in
  let acc = { spans = []; counters = []; jobs = Hashtbl.create 1024 } in
  let cache = Serve_cache.create ~cap_mb:cache_mb in
  let run_job (job : Workload.job) =
    try Ok (if served then render_cached cache job.Workload.req
            else render ~lookup:Serve_jobs.load_entry job.Workload.req)
    with e -> Error (describe_exn e)
  in
  let warmup = Workload.warmup wl in
  let warm_reqs = List.mapi (fun i _ -> i + 1) warmup in
  List.iter2 (fun r j -> Hashtbl.replace acc.jobs r j) warm_reqs warmup;
  start_tracing ();
  List.iter
    (fun (job : Workload.job) ->
      match Obs.with_span "job" (fun () -> run_job job) with
      | Ok _ -> ()
      | Error e -> failwith ("warm-up " ^ job.Workload.label ^ ": " ^ e))
    warmup;
  ignore (stop_tracing acc ~reqs:warm_reqs);
  let before_round r = if traced_round r then start_tracing () in
  let after_round r reqs =
    if traced_round r then begin
      let counters = stop_tracing acc ~reqs in
      if r = 1 then acc.counters <- counters
    end
  in
  let exec ~round ~req_id (job : Workload.job) =
    Hashtbl.replace acc.jobs req_id job;
    if traced_round round then Obs.with_span "job" (fun () -> run_job job) else run_job job
  in
  (* The collections the oneshot reset forces are not the program's. *)
  let forced_minor = ref 0 and forced_major = ref 0 in
  let reset () =
    if not served then begin
      let a = Gc.quick_stat () in
      oneshot_reset ();
      let b = Gc.quick_stat () in
      forced_minor := !forced_minor + b.Gc.minor_collections - a.Gc.minor_collections;
      forced_major := !forced_major + b.Gc.major_collections - a.Gc.major_collections
    end
  in
  let gc0 = Gc.quick_stat () in
  let samples, rounds =
    closed_loop ~reset ~before_round ~after_round ~first_req:(List.length warmup) ~min_rounds:3
      wl ~seconds:o.seconds ~cpu:process_cpu ~exec
  in
  let gc1 = Gc.quick_stat () in
  let collections f forced = float (f gc1 - f gc0 - !forced) in
  (* Round 0 is left out: it is the first pass over the requests. *)
  let rate traced =
    List.filteri (fun i _ -> i > 0 && traced_round i = traced) rounds
    |> List.map round_rate |> median
  in
  let overhead_jps = rate true -. rate false in
  (* The served pass: round 0 twice through a warm daemon; the second
     time is measured, when the daemon has seen every request once, as
     in the timed loop. A request's serve overhead is its roundtrip
     minus its in-process run time: the median latency of the same
     request in this run's untraced rounds after round 0. *)
  let served_samples, roundtrip_ms, overhead_ms, scrape_delta =
    if not served then ([], 0., 0., fun _ -> 0.)
    else begin
      let pass d =
        Array.to_list
          (Array.mapi
             (fun i (job : Workload.job) ->
               let s = Obs.now () in
               let result = roundtrip d job.Workload.req in
               { job; req_id = -(i + 1); round = 0; lat = Obs.now () -. s; result })
             (Workload.round wl 0))
      in
      let d, _ = serve_setup wl in
      let first = pass d in
      let m0 = Daemon.scrape d in
      let measured = pass d in
      let m1 = Daemon.scrape d in
      Daemon.stop d;
      let runs = Hashtbl.create 256 in
      List.iter
        (fun s ->
          if s.round > 0 && not (traced_round s.round) then
            Hashtbl.replace runs s.job.Workload.key
              (s.lat :: Option.value ~default:[] (Hashtbl.find_opt runs s.job.Workload.key)))
        samples;
      let overhead s =
        Option.map (fun l -> s.lat -. median l) (Hashtbl.find_opt runs s.job.Workload.key)
      in
      let get m k = Option.value ~default:0. (List.assoc_opt k m) in
      ( first @ measured,
        ms (mean (List.map (fun s -> s.lat) measured)),
        ms (mean (List.filter_map overhead measured)),
        fun k -> get m1 k -. get m0 k )
    end
  in
  let failures =
    check_samples ~vs_oneshot:false samples @ check_samples ~vs_oneshot:true served_samples
  in
  report_failures failures;
  let attempted = List.length samples + List.length served_samples in
  let failed = List.length failures in
  let spans = List.rev acc.spans in
  let path =
    Printf.sprintf "%s/trace-%s-s%d-%d.json" out_dir (Workload.name o.workload) o.seed
      (Unix.getpid ())
  in
  Obs_json.with_atomic_file path (fun oc ->
      Obs_json.to_channel oc
        (Obs_json.Obj
           [
             ("workload", Obs_json.String (Workload.name o.workload));
             ("seed", Obs_json.Int o.seed);
             ("spans", Spans.to_json spans);
             ( "counters",
               Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Int v)) acc.counters) );
           ]));
  Printf.printf "workload %s  seed %d  %d in-process jobs in %d rounds (%d traced), %d served\n"
    (Workload.name o.workload) o.seed (List.length samples) (List.length rounds)
    (List.length (List.filter traced_round (List.init (List.length rounds) Fun.id)))
    (List.length served_samples);
  Printf.printf "trace: %s (%d spans)\n" path (List.length spans);
  Printf.printf "self times by span (count, mean ms, mean self ms):\n";
  List.iter
    (fun (name, n, t, st) -> Printf.printf "  %-32s %8d %12.4f %12.4f\n" name n t st)
    (Spans.by_name spans);
  (* Per-layer times: per job, the summed duration of the outermost
     spans of a name; the mean over the jobs that have one. Warm-up
     jobs count only for eco.snapshot_ms, where the daemon pays its
     snapshots. *)
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.Spans.id s) spans;
  let rec has_ancestor names s =
    match Hashtbl.find_opt by_id s.Spans.parent with
    | None -> false
    | Some p -> List.mem p.Spans.name names || has_ancestor names p
  in
  let is_warmup req = req <= List.length warmup in
  let inline req =
    match Hashtbl.find_opt acc.jobs req with
    | Some j -> (circuit_of j.Workload.req).Serve_jobs.source <> None
    | None -> false
  in
  let per_job ~keep names =
    let tbl = Hashtbl.create 256 in
    List.iter
      (fun s ->
        if List.mem s.Spans.name names && keep s.Spans.req && not (has_ancestor names s) then
          Hashtbl.replace tbl s.Spans.req
            (s.Spans.dur_us +. Option.value ~default:0. (Hashtbl.find_opt tbl s.Spans.req)))
      spans;
    tbl
  in
  let mean_ms tbl = Hashtbl.fold (fun _ v a -> v :: a) tbl [] |> mean |> fun us -> us /. 1000. in
  let layer ?(keep = fun req -> not (is_warmup req)) name = mean_ms (per_job ~keep [ name ]) in
  let job_us = per_job ~keep:(fun req -> not (is_warmup req)) [ "job" ] in
  let covered = per_job ~keep:(fun req -> not (is_warmup req)) layer_spans in
  let residual =
    Hashtbl.fold
      (fun req t a -> (t -. Option.value ~default:0. (Hashtbl.find_opt covered req)) :: a)
      job_us []
  in
  let cnt name = Option.value ~default:0 (List.assoc_opt name acc.counters) in
  let share a b = frac (cnt a) (cnt a + cnt b) in
  let share_f a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let n_jobs = float (max 1 (List.length samples)) in
  let metrics =
    [
      ("circuits.load_ms", layer ~keep:(fun r -> not (is_warmup r || inline r)) "load", "ms");
      ("network.blif_parse_ms", layer ~keep:(fun r -> (not (is_warmup r)) && inline r) "load", "ms");
      ("gatelib.map_ms", layer "map", "ms");
      ("timing.sta_ms", layer "sta.analyze", "ms");
      ("spcf.ctx_create_ms", layer "spcf.ctx.create", "ms");
      ("spcf.short_path_ms", layer "spcf.short-path-based", "ms");
      ("bdd.ite_calls", float (cnt "bdd.ite.calls"), "count");
      ("bdd.nodes_max", float (cnt "bdd.nodes.max"), "count");
      ("bdd.ite_cache_hit_frac", share "bdd.ite.cache_hits" "bdd.ite.cache_misses", "frac");
      ("spcf.stability_calls", float (cnt "spcf.stability.calls"), "count");
      ("spcf.memo_hit_frac", frac (cnt "spcf.stability.memo_hits") (cnt "spcf.stability.calls"), "frac");
      ("sensitization.analyze_ms", layer "sens.analyze", "ms");
      ("sensitization.paths", float (cnt "sens.paths"), "count");
      ("sensitization.unknown_frac", frac (cnt "sens.unknown") (cnt "sens.paths"), "frac");
      ("masking.synthesize_ms", layer "synthesis", "ms");
      ("masking.verify_ms", layer "verify", "ms");
      ("sim.power_ms", layer "power", "ms");
      ("masking.cube_keep_frac", share "synthesis.cubes.kept" "synthesis.cubes.dropped", "frac");
      ("eco.snapshot_ms", layer ~keep:is_warmup "eco.baseline", "ms");
      ("eco.recompute_ms", layer "eco.recompute", "ms");
      ("eco.dirty_frac", frac (cnt "eco.dirty_signals") (cnt "eco.funcs.reused" + cnt "eco.funcs.rebuilt"), "frac");
      ("eco.funcs_reuse_frac", share "eco.funcs.reused" "eco.funcs.rebuilt", "frac");
      ("eco.sigmas_reuse_frac", share "eco.sigmas.reused" "eco.sigmas.recomputed", "frac");
      ("serve_jobs.run_ms", mean_ms job_us, "ms");
      ("serve_jobs.residual_ms", mean residual /. 1000., "ms");
      ("serve.roundtrip_ms", roundtrip_ms, "ms");
      ("serve.overhead_ms", overhead_ms, "ms");
      ("serve_cache.hit_frac", share_f (scrape_delta "emask_serve_cache_hits") (scrape_delta "emask_serve_cache_misses"), "frac");
      ("serve_cache.snap_hit_frac", share_f (scrape_delta "emask_serve_cache_snap_hits") (scrape_delta "emask_serve_cache_snap_misses"), "frac");
      ("serve.rejected", scrape_delta "emask_serve_rejected_queue" +. scrape_delta "emask_serve_rejected_proto", "count");
      ("runtime.minor_gcs", collections (fun g -> g.Gc.minor_collections) forced_minor /. n_jobs, "count/job");
      ("runtime.major_gcs", collections (fun g -> g.Gc.major_collections) forced_major /. n_jobs, "count/job");
      ("runtime.heap_peak_mb", float (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576., "MiB");
      ("trace.overhead_jobs_per_s", overhead_jps, "1/s");
    ]
  in
  Printf.printf "per-layer metrics (layer times: mean ms per job that enters the layer):\n";
  List.iter print_metric metrics;
  print_metric ("fail_frac", frac failed attempted, "frac");
  emit ~correct:(failed = 0) ~attempted ~failed metrics

let run o =
  let wl = Workload.create o.workload ~seed:o.seed in
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  host_facts ();
  Fun.protect ~finally:Daemon.stop_all @@ fun () ->
  if o.trace then traced o wl else end_to_end o wl

(* --- self-test and digests ----------------------------------------------------------- *)

let self_test () =
  let seed = 7 in
  let traced w =
    let args =
      [|
        Sys.executable_name; "--workload"; Workload.name w; "--seed"; string_of_int seed;
        "--seconds"; "1"; "--trace"; "1";
      |]
    in
    let ic = Unix.open_process_args_in Sys.executable_name args in
    let lines = In_channel.input_all ic |> String.split_on_char '\n' in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith (Workload.name w ^ ": traced run failed"));
    let path =
      List.find_map
        (fun l ->
          if String.starts_with ~prefix:"trace: " l then
            Some (List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7))))
          else None)
        lines
      |> Option.get
    in
    let json = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    match Obs_json.of_string json with
    | Ok j -> Option.get (Obs_json.member "counters" j)
    | Error e -> failwith e
  in
  let ok =
    List.for_all
      (fun w ->
        let a = traced w and b = traced w in
        let same = a = b in
        Printf.printf "%-16s counters %s: %s\n" (Workload.name w)
          (if same then "identical" else "DIFFER")
          (Obs_json.to_string a);
        same)
      Workload.kinds
  in
  exit (if ok then 0 else 1)

let print_digests () =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun kind ->
      Array.iter
        (fun (job : Workload.job) ->
          if job.Workload.fixed && not (Hashtbl.mem seen job.Workload.key) then begin
            Hashtbl.add seen job.Workload.key ();
            let out = render ~lookup:Serve_jobs.load_entry job.Workload.req in
            Printf.printf "%s %s %s\n" job.Workload.key (digest_of out) job.Workload.label
          end)
        (Workload.round (Workload.create kind ~seed:0) 0))
    [ Workload.Oneshot_cold ]

(* --- command line ------------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let mode = ref `Run in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W oneshot-cold | serve-eco");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer run (1)");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), " counter repeatability test");
      ("--print-digests", Arg.Unit (fun () -> mode := `Digests), " seed-commit output digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  match !mode with
  | `Self_test -> self_test ()
  | `Digests -> print_digests ()
  | `Run -> (
    if not (Sys.file_exists emask) then fail ("emask binary not found: " ^ emask);
    if not (Sys.file_exists digests_file) then fail ("missing " ^ digests_file);
    if !seconds < 1 then fail "--seconds must be >= 1";
    if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
    match Workload.of_name !workload with
    | None -> fail ("unknown workload " ^ !workload)
    | Some w ->
      run
        {
          workload = w;
          seed = !seed;
          seconds = float !seconds;
          trace = !trace = 1;
        })
