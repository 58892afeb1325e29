(* End-to-end tests of the emask serve daemon: served responses are
   byte-identical to the one-shot CLI across worker counts, repeated
   circuits hit the LRU, an eco snapshot is charged its BDD heap,
   concurrent eco jobs on one cached circuit stay byte-identical to
   the one-shot CLI, saturation and budget exhaustion produce
   structured rejections, a client disconnect cancels the running job
   via its budget flag, hung clients are shed by the read timeout
   without taking the daemon down, and a disconnect while queued drops
   the job unrun. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let emask =
  match Sys.getenv_opt "EMASK" with
  | Some path -> path
  | None -> Filename.concat ".." (Filename.concat "bin" "emask.exe")

(* Run the binary, returning (exit code, stdout lines, stderr lines). *)
let run args =
  let out = Filename.temp_file "emask_out" ".txt" in
  let err = Filename.temp_file "emask_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote emask)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let slurp f =
    let ic = open_in f in
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file -> List.rev acc
    in
    let lines = go [] in
    close_in ic;
    Sys.remove f;
    lines
  in
  (code, slurp out, slurp err)

let contains text needle =
  let n = String.length needle and len = String.length text in
  let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
  go 0

let fixture name = Filename.concat "fixtures" name

(* Wall-clock noise is the one legitimate difference between two runs
   of the same job, so the spcf "runtime: x.xxxs" tail is masked
   before comparison (it differs between two one-shot runs too). *)
let normalize lines =
  List.map
    (fun line ->
      if contains line "  runtime: " then begin
        let rec find i =
          if String.sub line i 11 = "  runtime: " then i else find (i + 1)
        in
        String.sub line 0 (find 0) ^ "  runtime: <t>"
      end
      else line)
    lines

(* --- daemon lifecycle ----------------------------------------------------- *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "emask-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

(* Start a daemon on a fresh Unix socket, run [f sock], always shut
   the daemon down. *)
let with_server ?(args = []) f =
  let sock = fresh_sock () in
  if Sys.file_exists sock then Sys.remove sock;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process emask
      (Array.of_list (([ emask; "serve"; "--socket"; sock ] @ args)))
      dev_null dev_null dev_null
  in
  Unix.close dev_null;
  (* Wait until the daemon accepts connections. *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_ready () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "serve daemon did not come up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Unix.sleepf 0.05;
      wait_ready ()
  in
  wait_ready ();
  Fun.protect
    ~finally:(fun () ->
      let code, _, _ = run [ "client"; "shutdown"; "--socket"; sock ] in
      ignore code;
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f sock)

let scrape sock =
  let code, out, _ = run [ "client"; "metrics"; "--socket"; sock ] in
  check_int "metrics scrape exits 0" 0 code;
  String.concat "\n" out

let counter_value metrics name =
  let prefix = name ^ " " in
  List.fold_left
    (fun acc line ->
      if String.starts_with ~prefix line then
        int_of_string
          (String.trim
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix)))
      else acc)
    (-1)
    (String.split_on_char '\n' metrics)

(* --- byte identity -------------------------------------------------------- *)

(* Every job kind, served vs one-shot, across worker counts: exit code
   and (runtime-normalized) stdout must agree byte for byte. The
   served run repeats each circuit, so later iterations are cache
   hits — identity must hold for those too. *)
let test_byte_identity () =
  let edits = Filename.temp_file "emask_edits" ".eco" in
  let oc = open_out edits in
  output_string oc "# no edits\n";
  close_out oc;
  let blif = fixture "allfalse.blif" in
  let cases =
    [
      [ "lint"; blif ];
      [ "lint"; "cmb" ];
      [ "spcf"; blif; "--theta"; "0.8" ];
      [ "spcf"; "cmb" ];
      [ "paths"; blif; "--band"; "0.2" ];
      [ "protect"; blif ];
      [ "eco"; blif; "--edits"; edits; "--check" ];
    ]
  in
  List.iter
    (fun jobs ->
      with_server ~args:[ "--jobs"; jobs ] (fun sock ->
          List.iter
            (fun case ->
              let name = String.concat " " case ^ " @jobs=" ^ jobs in
              let case = case @ [ "--jobs"; jobs ] in
              let ccode, cout, _ = run case in
              let scode, sout, serr =
                run ((("client" :: case) @ [ "--socket"; sock ]))
              in
              check
                (name ^ " no client stderr: " ^ String.concat "|" serr)
                true (serr = []);
              check_int (name ^ " exit code") ccode scode;
              check_string (name ^ " output")
                (String.concat "\n" (normalize cout))
                (String.concat "\n" (normalize sout)))
            cases))
    [ "1"; "2"; "4" ];
  Sys.remove edits

(* --- cache ---------------------------------------------------------------- *)

let test_cache_hits () =
  with_server ~args:[ "--jobs"; "2" ] (fun sock ->
      let before = scrape sock in
      check_int "no hits yet" 0 (counter_value before "emask_serve_cache_hits");
      let c1, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      let c2, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      let c3, _, _ = run [ "client"; "paths"; "cmb"; "--socket"; sock ] in
      check_int "spcf #1" 0 c1;
      check_int "spcf #2" 0 c2;
      check_int "paths" 0 c3;
      let m = scrape sock in
      let hits = counter_value m "emask_serve_cache_hits" in
      let misses = counter_value m "emask_serve_cache_misses" in
      check ("repeat circuit hits the LRU, hits=" ^ string_of_int hits) true
        (hits >= 2);
      check_int "one miss for one distinct circuit" 1 misses;
      (* Eco baseline snapshots are memoized per (circuit, theta, band). *)
      let edits = Filename.temp_file "emask_edits" ".eco" in
      let oc = open_out edits in
      output_string oc "# no edits\n";
      close_out oc;
      let e1, _, _ = run [ "client"; "eco"; "cmb"; "--edits"; edits; "--socket"; sock ] in
      let e2, _, _ = run [ "client"; "eco"; "cmb"; "--edits"; edits; "--socket"; sock ] in
      Sys.remove edits;
      check_int "eco #1" 0 e1;
      check_int "eco #2" 0 e2;
      let m = scrape sock in
      check "snapshot reused" true
        (counter_value m "emask_serve_cache_snap_hits" >= 1))

(* An eco snapshot is charged the heap of its BDD manager, so caching
   one can push the LRU over --cache-mb: two loaded circuits fit in
   1 MiB, but C880's baseline snapshot does not fit next to them, and
   inserting it evicts the older circuit. *)
let test_snapshot_charge_evicts () =
  with_server ~args:[ "--jobs"; "1"; "--cache-mb"; "1" ] (fun sock ->
      let c1, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      let c2, _, _ = run [ "client"; "spcf"; "C880"; "--socket"; sock ] in
      check_int "spcf cmb" 0 c1;
      check_int "spcf C880" 0 c2;
      check_int "both circuits fit" 0
        (counter_value (scrape sock) "emask_serve_cache_evictions");
      let e, _, _ =
        run [ "client"; "eco"; "C880"; "--edits"; "/dev/null"; "--socket"; sock ]
      in
      check_int "eco C880" 0 e;
      let m = scrape sock in
      check_int "the snapshot evicted the older circuit" 1
        (counter_value m "emask_serve_cache_evictions");
      let misses = counter_value m "emask_serve_cache_misses" in
      let c3, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      check_int "spcf cmb again" 0 c3;
      check_int "cmb was evicted" (misses + 1)
        (counter_value (scrape sock) "emask_serve_cache_misses"))

(* Eco jobs on one cached circuit share its baseline's BDD manager, a
   single-domain structure that every recompute grows; the entry lock
   is what makes that safe. Twelve eco requests with three edit
   sequences on lsu_stb_ctl are all in flight at once against two
   workers, and each must get exactly the one-shot rendering. *)
let test_concurrent_eco () =
  let edit_files =
    List.map
      (fun text ->
        let f = Filename.temp_file "emask_edits" ".eco" in
        Out_channel.with_open_text f (fun oc -> output_string oc text);
        (f, text))
      [ "# no edits\n"; "rewire g_AN3_2 0 pi0\n"; "rewire g_OR3_31 1 pi1\n" ]
  in
  let circuit = { Serve_jobs.spec = "lsu_stb_ctl"; source = None } in
  let expected =
    List.map
      (fun (f, _) ->
        let code, out, _ = run [ "eco"; "lsu_stb_ctl"; "--edits"; f ] in
        check_int "one-shot eco exits 0" 0 code;
        String.concat "\n" out ^ "\n")
      edit_files
  in
  with_server ~args:[ "--jobs"; "2" ] (fun sock ->
      let send (f, text) =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        Serve_protocol.send_request fd
          (Serve_protocol.Eco
             ( circuit,
               {
                 Serve_jobs.c_edits_name = f;
                 c_edits = text;
                 c_theta = 0.9;
                 c_band = None;
                 c_jobs = 1;
                 c_json = false;
                 c_check = false;
               },
               Budget.no_limits ));
        fd
      in
      let inflight = List.concat_map (fun e -> List.init 4 (fun _ -> send e)) edit_files in
      List.iteri
        (fun i fd ->
          let want = List.nth expected (i / 4) in
          (match Serve_protocol.recv_response fd with
          | Serve_protocol.Ok_output (code, got) ->
            check_int (Printf.sprintf "request %d exit code" i) 0 code;
            check_string (Printf.sprintf "request %d output" i) want got
          | _ -> Alcotest.failf "request %d: expected an output response" i);
          Unix.close fd)
        inflight);
  List.iter (fun (f, _) -> Sys.remove f) edit_files

(* --- admission control ---------------------------------------------------- *)

let test_queue_full () =
  (* One worker, queue bound 1: a long ping occupies the worker, a
     second fills the queue, the third must be rejected immediately
     with the structured QUEUE001 diagnostic. *)
  with_server ~args:[ "--jobs"; "1"; "--queue"; "1" ] (fun sock ->
      let spawn_ping () =
        let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pid =
          Unix.create_process emask
            [| emask; "client"; "ping"; "--delay"; "5"; "--socket"; sock |]
            dev_null dev_null dev_null
        in
        Unix.close dev_null;
        pid
      in
      let p1 = spawn_ping () in
      Unix.sleepf 0.5 (* worker picks up the first ping *);
      let p2 = spawn_ping () in
      Unix.sleepf 0.5 (* second ping parks in the queue *);
      let started = Unix.gettimeofday () in
      let code, _, err = run [ "client"; "ping"; "--socket"; sock ] in
      let elapsed = Unix.gettimeofday () -. started in
      check_int "saturated queue rejects" 2 code;
      check "rejection names QUEUE001" true
        (contains (String.concat "\n" err) "QUEUE001");
      check "rejection is immediate, not parked" true (elapsed < 2.);
      ignore (Unix.waitpid [] p1);
      ignore (Unix.waitpid [] p2))

let test_budget_exceeded () =
  (* A request-scoped budget that cannot cover the job must come back
     as a structured BUDGET001 error response, exit 2 — and must not
     poison the daemon for later well-budgeted requests. *)
  with_server ~args:[ "--jobs"; "1" ] (fun sock ->
      let code, _, err =
        run
          [
            "client"; "eco"; "cmb"; "--edits"; "/dev/null"; "--max-nodes"; "1";
            "--socket"; sock;
          ]
      in
      check_int "exhausted budget exits 2" 2 code;
      check "diagnostic names BUDGET001" true
        (contains (String.concat "\n" err) "BUDGET001");
      let m = scrape sock in
      check "exhaustion counted" true
        (counter_value m "emask_serve_budget_exhausted" >= 1);
      let code, _, _ = run [ "client"; "spcf"; "cmb"; "--socket"; sock ] in
      check_int "daemon still serves afterwards" 0 code)

(* --- disconnect cancellation ---------------------------------------------- *)

let test_disconnect_cancels () =
  (* Ship a long ping over a raw protocol connection and hang up
     immediately: the watcher must trip the job's budget flag, and the
     job must land in serve.cancelled — the worker is free again long
     before the ping's nominal delay. *)
  with_server ~args:[ "--jobs"; "1" ] (fun sock ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.send_request fd (Serve_protocol.Ping 30.);
      Unix.sleepf 0.3 (* let the worker pick the job up *);
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_cancelled () =
        let m = scrape sock in
        if counter_value m "emask_serve_cancelled" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "disconnect did not cancel the running job"
        else begin
          Unix.sleepf 0.2;
          wait_cancelled ()
        end
      in
      wait_cancelled ())

(* --- abusive clients ------------------------------------------------------- *)

(* A client that connects and never finishes its request must cost the
   daemon at most --read-timeout on the accept thread, and the failed
   read must cost exactly that connection — not the accept loop: after
   both a hung HTTP head and a hung half-frame, the daemon still
   answers pings, and the stalled connections have been dropped (EOF
   on the client side). *)
let test_abusive_clients_survive () =
  with_server ~args:[ "--read-timeout"; "0.5" ] (fun sock ->
      let hang payload =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let b = Bytes.of_string payload in
        ignore (Unix.write fd b 0 (Bytes.length b));
        fd
      in
      let http = hang "GET " (* head that never completes *) in
      let frame = hang "\x00\x00" (* frame header that never completes *) in
      let code, _, _ = run [ "client"; "ping"; "--socket"; sock ] in
      check_int "daemon serves past hung clients" 0 code;
      let dropped fd =
        let deadline = Unix.gettimeofday () +. 10. in
        let rec wait () =
          match Unix.select [ fd ] [] [] 0.2 with
          | [ _ ], _, _ -> Unix.recv fd (Bytes.create 1) 0 1 [] = 0
          | _ -> Unix.gettimeofday () <= deadline && wait ()
        in
        wait ()
      in
      check "hung HTTP client was dropped" true (dropped http);
      check "hung frame client was dropped" true (dropped frame);
      Unix.close http;
      Unix.close frame)

(* A client that hangs up while its job is still parked in the queue
   must have the job dropped as CANCELLED, not run: the queue watcher
   trips the flag at park time, so the counter moves long before the
   abandoned ping's nominal 30 s delay could elapse. *)
let test_queued_disconnect_drops () =
  with_server ~args:[ "--jobs"; "1" ] (fun sock ->
      let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let busy =
        Unix.create_process emask
          [| emask; "client"; "ping"; "--delay"; "2"; "--socket"; sock |]
          dev_null dev_null dev_null
      in
      Unix.close dev_null;
      Unix.sleepf 0.3 (* the lone worker picks the first ping up *);
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.send_request fd (Serve_protocol.Ping 30.);
      Unix.sleepf 0.3 (* the second ping parks in the queue *);
      Unix.close fd (* ... and its client gives up *);
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_cancelled () =
        let m = scrape sock in
        if counter_value m "emask_serve_cancelled" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "queued job of a gone client was not dropped"
        else begin
          Unix.sleepf 0.2;
          wait_cancelled ()
        end
      in
      wait_cancelled ();
      ignore (Unix.waitpid [] busy))

(* --- protocol-level rejection --------------------------------------------- *)

let test_protocol_rejections () =
  with_server (fun sock ->
      (* Garbage framing: answered with PROTO001, connection closed. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.write_frame fd "this is not json";
      (match Serve_protocol.recv_response fd with
      | Serve_protocol.Rejected (code, _) -> check_string "proto code" "PROTO001" code
      | _ -> Alcotest.fail "expected a PROTO001 rejection");
      Unix.close fd;
      (* Out-of-domain parameters are rejected with the CLI converter's
         message, not silently clamped. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      Serve_protocol.write_frame fd
        {|{"job":"spcf","circuit":"cmb","theta":1.5}|};
      (match Serve_protocol.recv_response fd with
      | Serve_protocol.Rejected (code, msg) ->
        check_string "theta code" "PROTO001" code;
        check "theta message names the domain" true (contains msg "(0, 1]")
      | _ -> Alcotest.fail "expected a PROTO001 rejection");
      Unix.close fd;
      (* A key the job does not take is rejected by name, not ignored:
         a misspelling, another job's parameter, a budget key on a job
         that takes no budget. *)
      List.iter
        (fun (request, key) ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          Serve_protocol.write_frame fd request;
          (match Serve_protocol.recv_response fd with
          | Serve_protocol.Rejected (code, msg) ->
            check_string (key ^ " code") "PROTO001" code;
            check (key ^ " named in: " ^ msg) true (contains msg (Printf.sprintf "%S" key))
          | _ -> Alcotest.failf "%s: expected a PROTO001 rejection" request);
          Unix.close fd)
        [
          ({|{"job":"spcf","circuit":"cmb","thetta":0.5}|}, "thetta");
          ({|{"job":"spcf","circuit":"cmb","max_paths":0}|}, "max_paths");
          ({|{"job":"lint","circuit":"cmb","timeout":1}|}, "timeout");
        ])

(* --- the request codec ----------------------------------------------------- *)

let cmb = { Serve_jobs.spec = "cmb"; source = None }
let inline = { Serve_jobs.spec = "x.blif"; source = Some ".model x\n.end\n" }
let budget = { Budget.no_limits with Budget.timeout = Some 2.5; max_nodes = Some 1000 }

(* Every job with every parameter off its default, with and without an
   inline source and a budget. *)
let non_default =
  List.concat_map
    (fun (c, b) ->
      [
        Serve_protocol.Lint
          ( c,
            {
              Serve_jobs.l_fail_on = Analysis.Diag.Warning;
              l_json = true;
              l_contract = true;
              l_theta = 0.75;
              l_jobs = 3;
            } );
        Serve_protocol.Spcf
          ( c,
            { Serve_jobs.s_theta = 0.5; s_algorithm = Spcf.Governed.Node_based; s_jobs = 2 },
            b );
        Serve_protocol.Spcf
          ( c,
            { Serve_jobs.s_theta = 1.; s_algorithm = Spcf.Governed.Path_based; s_jobs = 1 },
            b );
        Serve_protocol.Paths
          ( c,
            {
              Serve_jobs.p_band = 0.3;
              p_max_paths = 7;
              p_jobs = 2;
              p_json = true;
              p_fail_on = Analysis.Diag.Warning;
            },
            b );
        Serve_protocol.Protect (c, { Serve_jobs.m_theta = 0.8; m_jobs = 5; m_prune = true }, b);
        Serve_protocol.Eco
          ( c,
            {
              Serve_jobs.c_edits_name = "e.eco";
              c_edits = "rewire g 0 pi0\n";
              c_theta = 0.6;
              c_band = Some 0.2;
              c_jobs = 4;
              c_json = true;
              c_check = true;
            },
            b );
      ])
    [ (cmb, Budget.no_limits); (inline, Budget.no_limits); (cmb, budget); (inline, budget) ]

(* A request that names only its job (and circuit, and eco's edits)
   decodes to the table defaults. *)
let defaults =
  [
    ( {|{"job":"lint","circuit":"cmb"}|},
      Serve_protocol.Lint
        ( cmb,
          {
            Serve_jobs.l_fail_on = Analysis.Diag.Error;
            l_json = false;
            l_contract = false;
            l_theta = 0.9;
            l_jobs = 1;
          } ) );
    ( {|{"job":"spcf","circuit":"cmb"}|},
      Serve_protocol.Spcf
        ( cmb,
          { Serve_jobs.s_theta = 0.9; s_algorithm = Spcf.Governed.Short_path; s_jobs = 1 },
          Budget.no_limits ) );
    ( {|{"job":"paths","circuit":"cmb"}|},
      Serve_protocol.Paths
        ( cmb,
          {
            Serve_jobs.p_band = 0.1;
            p_max_paths = 4096;
            p_jobs = 1;
            p_json = false;
            p_fail_on = Analysis.Diag.Error;
          },
          Budget.no_limits ) );
    ( {|{"job":"protect","circuit":"cmb"}|},
      Serve_protocol.Protect
        (cmb, { Serve_jobs.m_theta = 0.9; m_jobs = 1; m_prune = false }, Budget.no_limits) );
    ( {|{"job":"eco","circuit":"cmb","edits":""}|},
      Serve_protocol.Eco
        ( cmb,
          {
            Serve_jobs.c_edits_name = "<request>";
            c_edits = "";
            c_theta = 0.9;
            c_band = None;
            c_jobs = 1;
            c_json = false;
            c_check = false;
          },
          Budget.no_limits ) );
    ({|{"job":"ping"}|}, Serve_protocol.Ping 0.);
    ({|{"job":"metrics"}|}, Serve_protocol.Metrics);
    ({|{"job":"shutdown"}|}, Serve_protocol.Shutdown);
  ]

let wire r = Obs_json.to_string (Serve_protocol.json_of_request r)

let test_codec_roundtrip () =
  List.iter
    (fun (json, want) ->
      check (json ^ " decodes to the defaults") true
        (Serve_protocol.parse_request json = want))
    defaults;
  List.iter
    (fun r -> check (wire r ^ " round-trips") true (Serve_protocol.parse_request (wire r) = r))
    (List.map snd defaults @ non_default)

(* The bytes json_of_request emitted before the codec was derived from
   the parameter tables. perfbench keys its fixed samples on digests of
   these bytes, so key order and float rendering must not move. The
   first four are shaped like the perfbench requests. *)
let test_golden_wire () =
  let c432 = { Serve_jobs.spec = "C432"; source = None } in
  let nl = Budget.no_limits in
  List.iter
    (fun (r, want) -> check_string want want (wire r))
    [
      ( Serve_protocol.Spcf
          ( c432,
            { Serve_jobs.s_theta = 0.9; s_algorithm = Spcf.Governed.Short_path; s_jobs = 1 },
            nl ),
        {|{"job":"spcf","circuit":"C432","theta":0.9,"algorithm":"short","jobs":1}|} );
      ( Serve_protocol.Protect
          (c432, { Serve_jobs.m_theta = 0.9; m_jobs = 1; m_prune = false }, nl),
        {|{"job":"protect","circuit":"C432","theta":0.9,"jobs":1,"prune_false_paths":false}|}
      );
      ( Serve_protocol.Paths
          ( c432,
            {
              Serve_jobs.p_band = 0.1;
              p_max_paths = 4096;
              p_jobs = 1;
              p_json = false;
              p_fail_on = Analysis.Diag.Error;
            },
            nl ),
        {|{"job":"paths","circuit":"C432","band":0.1,"max_paths":4096,"jobs":1,"json":false,"fail_on":"error"}|}
      );
      ( Serve_protocol.Eco
          ( { Serve_jobs.spec = "C880"; source = None },
            {
              Serve_jobs.c_edits_name = "seed0-1";
              c_edits = "rewire g_AN3_2 0 pi0\n";
              c_theta = 0.9;
              c_band = None;
              c_jobs = 1;
              c_json = false;
              c_check = false;
            },
            nl ),
        {|{"job":"eco","circuit":"C880","edits":"rewire g_AN3_2 0 pi0\n","edits_name":"seed0-1","theta":0.9,"jobs":1,"json":false,"check":false}|}
      );
      ( Serve_protocol.Lint
          ( inline,
            {
              Serve_jobs.l_fail_on = Analysis.Diag.Warning;
              l_json = true;
              l_contract = true;
              l_theta = 0.75;
              l_jobs = 3;
            } ),
        {|{"job":"lint","circuit":"x.blif","source":".model x\n.end\n","fail_on":"warning","json":true,"contract":true,"theta":0.75,"jobs":3}|}
      );
      ( Serve_protocol.Spcf
          ( c432,
            { Serve_jobs.s_theta = 0.5; s_algorithm = Spcf.Governed.Node_based; s_jobs = 2 },
            { nl with Budget.timeout = Some 2.5; max_nodes = Some 1000 } ),
        {|{"job":"spcf","circuit":"C432","theta":0.5,"algorithm":"node","jobs":2,"timeout":2.5,"max_nodes":1000}|}
      );
      ( Serve_protocol.Eco
          ( c432,
            {
              Serve_jobs.c_edits_name = "e.eco";
              c_edits = "";
              c_theta = 1.0;
              c_band = Some 0.2;
              c_jobs = 4;
              c_json = true;
              c_check = true;
            },
            { nl with Budget.timeout = Some 1. } ),
        {|{"job":"eco","circuit":"C432","edits":"","edits_name":"e.eco","theta":1.0,"band":0.2,"jobs":4,"json":true,"check":true,"timeout":1.0}|}
      );
      (Serve_protocol.Ping 0.5, {|{"job":"ping","delay":0.5}|});
      (Serve_protocol.Metrics, {|{"job":"metrics"}|});
      (Serve_protocol.Shutdown, {|{"job":"shutdown"}|});
    ]

(* --- a daemon that drops the connection ------------------------------------ *)

(* A peer that closes the connection, before reading the request or in
   the middle of its response, is an I/O error on the client: one
   "emask: error IO001: ..." line and exit 2, not a SIGPIPE death or an
   uncaught exception. *)
let test_dropped_connection () =
  List.iter
    (fun (what, serve) ->
      let sock = fresh_sock () in
      if Sys.file_exists sock then Sys.remove sock;
      let lsn = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind lsn (Unix.ADDR_UNIX sock);
      Unix.listen lsn 1;
      let err = Filename.temp_file "emask_err" ".txt" in
      let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process emask
          [| emask; "client"; "spcf"; "cmb"; "--socket"; sock |]
          dev_null dev_null err_fd
      in
      Unix.close dev_null;
      Unix.close err_fd;
      let conn, _ = Unix.accept lsn in
      serve conn;
      Unix.close conn;
      let _, status = Unix.waitpid [] pid in
      Unix.close lsn;
      Sys.remove sock;
      let lines = In_channel.with_open_text err In_channel.input_all in
      Sys.remove err;
      check_string (what ^ " exit") "exit 2"
        (match status with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
        | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n);
      check (what ^ " one IO001 line: " ^ lines) true
        (String.starts_with ~prefix:"emask: error IO001: " lines
        && List.length (String.split_on_char '\n' (String.trim lines)) = 1))
    [
      ("close before reading", fun _ -> ());
      ( "close mid-response",
        fun fd ->
          ignore (Serve_protocol.read_frame fd);
          let partial = Bytes.of_string "\x00\x00\x03\xe8{\"status\"" in
          ignore (Unix.write fd partial 0 (Bytes.length partial)) );
    ]

let () =
  Alcotest.run "serve"
    [
      ( "serve",
        [
          Alcotest.test_case "byte identity" `Slow test_byte_identity;
          Alcotest.test_case "cache hits" `Quick test_cache_hits;
          Alcotest.test_case "snapshot charge evicts" `Quick test_snapshot_charge_evicts;
          Alcotest.test_case "concurrent eco on one circuit" `Quick test_concurrent_eco;
          Alcotest.test_case "queue full" `Quick test_queue_full;
          Alcotest.test_case "budget exceeded" `Quick test_budget_exceeded;
          Alcotest.test_case "disconnect cancels" `Quick test_disconnect_cancels;
          Alcotest.test_case "abusive clients survive" `Quick
            test_abusive_clients_survive;
          Alcotest.test_case "queued disconnect drops" `Quick
            test_queued_disconnect_drops;
          Alcotest.test_case "protocol rejections" `Quick test_protocol_rejections;
          Alcotest.test_case "codec round-trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "golden wire bytes" `Quick test_golden_wire;
          Alcotest.test_case "dropped connection" `Quick test_dropped_connection;
        ] );
    ]
