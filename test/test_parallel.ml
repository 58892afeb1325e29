(* Tests for what parallelism survives around the one sequential BDD
   manager: the cross-manager DAG transport round-trips arbitrary
   functions; several domains, each with a private manager (the serve
   worker pool's model), compute exactly what one domain computes; a
   manager handed between domains keeps its handles; collection on
   several such domains merges to exact per-domain counts; and the [jobs]
   member a request still carries never changes a rendered byte. *)

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ---------- Expressions ---------- *)

type expr = Var of int | Not of expr | And of expr * expr | Xor of expr * expr

let rec eval_expr env = function
  | Var v -> env.(v)
  | Not e -> not (eval_expr env e)
  | And (a, b) -> eval_expr env a && eval_expr env b
  | Xor (a, b) -> eval_expr env a <> eval_expr env b

let rec build man = function
  | Var v -> Bdd.var man v
  | Not e -> Bdd.bnot man (build man e)
  | And (a, b) -> Bdd.band man (build man a) (build man b)
  | Xor (a, b) -> Bdd.bxor man (build man a) (build man b)

let expr_gen ~nvars ~size =
  let open QCheck.Gen in
  sized_size (int_bound size)
  @@ fix (fun self n ->
         if n <= 0 then map (fun v -> Var v) (int_bound (nvars - 1))
         else
           frequency
             [
               (1, map (fun v -> Var v) (int_bound (nvars - 1)));
               (2, map (fun e -> Not e) (self (n - 1)));
               (2, map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Xor (a, b)) (self (n / 2)) (self (n / 2)));
             ])

let rec expr_print = function
  | Var v -> Printf.sprintf "x%d" v
  | Not e -> Printf.sprintf "!(%s)" (expr_print e)
  | And (a, b) -> Printf.sprintf "(%s & %s)" (expr_print a) (expr_print b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (expr_print a) (expr_print b)

(* ---------- Export / import round-trip ---------- *)

let nvars = 6
let envs = List.init (1 lsl nvars) (fun i -> Array.init nvars (fun v -> (i lsr v) land 1 = 1))
let arb_expr = QCheck.make ~print:expr_print (expr_gen ~nvars ~size:8)

let prop_roundtrip =
  QCheck.Test.make ~name:"transport: export/import preserves the function"
    ~count:300 arb_expr (fun e ->
      let m1 = Bdd.create ~nvars () in
      let m2 = Bdd.create ~nvars () in
      let f = build m1 e in
      let g = Bdd.import m2 (Bdd.export m1 f) in
      List.for_all (fun env -> Bdd.eval m2 g env = eval_expr env e) envs)

let prop_roundtrip_same_manager =
  QCheck.Test.make ~name:"transport: re-import into the source manager is identity"
    ~count:300 arb_expr (fun e ->
      let man = Bdd.create ~nvars () in
      let f = build man e in
      Bdd.import man (Bdd.export man f) = f)

(* ---------- Domains with private managers ---------- *)

(* A fixed pool (fixed generator seed), large enough that every
   manager grows its node store and unique table. *)
let pool_nvars = 14

let pool =
  QCheck.Gen.generate ~rand:(Random.State.make [| 2024 |]) ~n:96
    (expr_gen ~nvars:pool_nvars ~size:60)

(* The first node violating canonicity, if any: a duplicate
   (var, low, high) triple, a redundant node, or a child not below its
   parent in the variable order. Workers return it rather than failing
   themselves — Alcotest checks belong on the main domain. *)
let violation man =
  let seen = Hashtbl.create 4096 and bad = ref None in
  Bdd.iter_nodes man (fun n v lo hi ->
      let child_ok c = Bdd.is_terminal c || Bdd.var_of man c > v in
      if !bad = None && (lo = hi || (not (child_ok lo && child_ok hi)) || Hashtbl.mem seen (v, lo, hi))
      then bad := Some (n : Bdd.t :> int);
      Hashtbl.replace seen (v, lo, hi) ());
  !bad

(* Every domain builds the whole pool in its own manager, plus a
   domain-specific perturbation, concurrently with the others. The
   exported DAGs must equal a build on the main domain: the manager
   keeps no state that domains could share. *)
let test_hammer ndomains () =
  let export_pool ~perturb () =
    let man = Bdd.create ~nvars:pool_nvars () in
    let dags =
      List.map
        (fun e ->
          let f = build man e in
          ignore (Bdd.band man f (Bdd.var man (perturb mod pool_nvars)) : Bdd.t);
          Bdd.export man f)
        pool
    in
    (dags, violation man, Bdd.unique_capacity man)
  in
  let reference, ref_bad, ref_cap = export_pool ~perturb:0 () in
  check "main-domain table canonical" true (ref_bad = None);
  check "the pool grows the unique table" true (ref_cap > 4096);
  let results =
    Array.init ndomains (fun d -> Domain.spawn (export_pool ~perturb:(d + 1)))
    |> Array.map Domain.join
  in
  Array.iteri
    (fun d (dags, bad, _) ->
      check (Printf.sprintf "domain %d table canonical" d) true (bad = None);
      check (Printf.sprintf "domain %d DAGs agree with the main domain" d) true
        (dags = reference))
    results;
  let man = Bdd.create ~nvars:pool_nvars () in
  List.iteri
    (fun i e ->
      let f = Bdd.import man (List.nth reference i) in
      for trial = 0 to 63 do
        let env =
          Array.init pool_nvars (fun v -> (Hashtbl.hash (i, trial) lsr v) land 1 = 1)
        in
        check "semantics" (eval_expr env e) (Bdd.eval man f env)
      done)
    pool

(* A manager may move between domains (the serve daemon runs every eco
   job of a cached baseline under one lock, on whichever worker takes
   it). Build the pool on the main domain, grow the manager past
   several doublings on another, then rebuild on the main domain: the
   same functions must come back as the same handles. *)
let test_stable_across_growth () =
  let man = Bdd.create ~nvars:pool_nvars () in
  let before = List.map (build man) pool in
  let cap0 = Bdd.unique_capacity man in
  let grow () =
    QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:400
      (expr_gen ~nvars:pool_nvars ~size:60)
    |> List.iter (fun e -> ignore (build man e : Bdd.t))
  in
  Domain.join (Domain.spawn grow);
  check "table grew on the other domain" true (Bdd.unique_capacity man > cap0);
  check "same handles after the hand-back" true (List.map (build man) pool = before);
  check "table canonical" true (violation man = None)

(* ---------- Domains under collection ---------- *)

let with_obs_collect f =
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled false)
    f

let bdd_counters = [ "bdd.ite.calls"; "bdd.unique.inserts" ]

(* With collection on, each domain records into its own cells and ships
   a snapshot back, as the serve workers do. Every domain builds the
   same pool in a fresh private manager, so each must report exactly
   the counters of one build on the main domain, the merged totals must
   be their sum, and the DAGs must not change. *)
let test_obs_private_managers ndomains () =
  let build_pool () =
    let man = Bdd.create ~nvars:pool_nvars () in
    List.map (fun e -> Bdd.export man (build man e)) pool
  in
  let reference = build_pool () in
  with_obs_collect (fun () ->
      let counts () =
        List.map (fun n -> (n, Option.value ~default:0 (List.assoc_opt n (Obs.registered_counters ()))))
          bdd_counters
      in
      check "collection off leaves the DAGs alone" true (build_pool () = reference);
      let once = counts () in
      check "one build records BDD work" true (List.for_all (fun (_, v) -> v > 0) once);
      Obs.reset ();
      let results =
        Array.init ndomains (fun _ ->
            Domain.spawn (fun () ->
                let dags = build_pool () in
                (dags, Obs.export_snapshot ())))
        |> Array.map Domain.join
      in
      Array.iteri
        (fun d (dags, snap) ->
          check (Printf.sprintf "domain %d DAGs agree" d) true (dags = reference);
          Obs.merge_snapshot ~label:(Printf.sprintf "worker %d" (d + 1)) snap)
        results;
      let breakdown = Obs.domain_breakdown () in
      Alcotest.(check int) "one breakdown entry per domain" ndomains (List.length breakdown);
      List.iter
        (fun (label, counters) ->
          List.iter
            (fun (n, v) ->
              Alcotest.(check int) (label ^ " " ^ n) v
                (Option.value ~default:0 (List.assoc_opt n counters)))
            once)
        breakdown;
      List.iter2
        (fun (n, v) (_, merged) -> Alcotest.(check int) ("merged " ^ n) (ndomains * v) merged)
        once (counts ()))

(* ---------- The jobs request member ---------- *)

let circuits = [ "i1"; "cmb"; "x2" ]
let circuit name = { Serve_jobs.spec = name; source = None }

(* The spcf rendering reports its measured runtime; cut that field. *)
let render run =
  let buf = Buffer.create 1024 in
  let code = run buf in
  let mask l =
    match Str.search_forward (Str.regexp_string "runtime:") l 0 with
    | i -> String.sub l 0 i
    | exception Not_found -> l
  in
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.map mask |> String.concat "\n"
  |> Printf.sprintf "exit %d\n%s" code

let test_spcf_jobs algorithm () =
  List.iter
    (fun name ->
      let run jobs buf =
        Serve_jobs.run_spcf ~note:None buf Serve_jobs.load_entry (circuit name)
          { Serve_jobs.s_theta = 0.9; s_algorithm = algorithm; s_jobs = jobs }
          Budget.no_limits
      in
      check_str (name ^ " jobs=4") (render (run 1)) (render (run 4)))
    circuits

let test_protect_jobs () =
  List.iter
    (fun name ->
      let run jobs buf =
        Serve_jobs.run_protect ~note:None buf Serve_jobs.load_entry (circuit name)
          { Serve_jobs.m_theta = 0.9; m_jobs = jobs; m_prune = false }
          Budget.no_limits
      in
      check_str (name ^ " jobs=4") (render (run 1)) (render (run 4)))
    circuits

(* Deterministic QCheck seeding (no wall-clock self-init): the state
   comes from Fuzz.Rng.qcheck_state, overridable via QCHECK_SEED. *)
let qsuite name tests =
  let rand = Fuzz.Rng.qcheck_state () in
  (name, List.map (QCheck_alcotest.to_alcotest ~rand) tests)

let () =
  Alcotest.run "spcf-parallel"
    [
      qsuite "transport" [ prop_roundtrip; prop_roundtrip_same_manager ];
      ( "hammer",
        [
          Alcotest.test_case "2 domains" `Quick (test_hammer 2);
          Alcotest.test_case "4 domains" `Quick (test_hammer 4);
          Alcotest.test_case "8 domains" `Quick (test_hammer 8);
          Alcotest.test_case "handles stable across growth" `Quick
            test_stable_across_growth;
        ] );
      ( "observability",
        [
          Alcotest.test_case "private managers, 4 domains" `Quick
            (test_obs_private_managers 4);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "short-path jobs=4 = jobs=1" `Quick
            (test_spcf_jobs Spcf.Governed.Short_path);
          Alcotest.test_case "path-based jobs=4 = jobs=1" `Quick
            (test_spcf_jobs Spcf.Governed.Path_based);
          Alcotest.test_case "synthesis jobs=4 = jobs=1" `Quick test_protect_jobs;
        ] );
    ]
