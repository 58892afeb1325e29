(* End-to-end tests of the emask executable: option validation (the
   --theta and --jobs converters reject bad values the same way), the
   paths subcommand's contract with CI (final "verdicts:" line, zero
   Unknown on the examples), and byte-identical output across --jobs. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let emask =
  match Sys.getenv_opt "EMASK" with
  | Some path -> path
  | None -> Filename.concat ".." (Filename.concat "bin" "emask.exe")

(* Run the binary, returning (exit code, stdout lines, stderr lines).
   [env] is prepended to the command line, e.g. "EMASK_JOBS=3 ". *)
let run ?(env = "") args =
  let out = Filename.temp_file "emask_out" ".txt" in
  let err = Filename.temp_file "emask_err" ".txt" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2> %s" env (Filename.quote emask)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code =
    match Sys.command cmd with c -> c
  in
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

let fixture name = Filename.concat "fixtures" name
let example name = Filename.concat (Filename.concat ".." (Filename.concat "examples" "blif")) name

let test_theta_validation () =
  (* Bad --theta must fail exactly like bad --jobs: same exit code,
     one-line diagnostic naming the offending value. *)
  let jobs_code, _, jobs_err = run [ "protect"; fixture "allfalse.blif"; "--jobs=0" ] in
  check "bad --jobs rejected" true (jobs_code <> 0);
  List.iter
    (fun bad ->
      let code, _, err = run [ "protect"; fixture "allfalse.blif"; "--theta=" ^ bad ] in
      check_int (Printf.sprintf "--theta %s exits like --jobs 0" bad) jobs_code code;
      check_int
        (Printf.sprintf "--theta %s stderr shape matches --jobs" bad)
        (List.length jobs_err) (List.length err);
      check
        (Printf.sprintf "--theta %s first line is the full diagnostic" bad)
        true
        (match err with
        | line :: _ ->
            let has needle =
              let n = String.length needle and len = String.length line in
              let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
              go 0
            in
            has "THETA" && has bad
        | [] -> false))
    [ "0"; "-0.5"; "1.5"; "2" ];
  (* Good values at the boundary still parse. *)
  let code, _, _ = run [ "protect"; fixture "allfalse.blif"; "--theta"; "1.0" ] in
  check_int "--theta 1.0 accepted" 0 code

let test_band_validation () =
  (* Bad --band must fail exactly like bad --jobs and bad --theta: same
     exit code, one-line diagnostic naming the offending value. A band
     of 0 classifies nothing and one above 1 silently clamps, so both
     are argument errors, not silent near-no-ops. *)
  let jobs_code, _, jobs_err = run [ "paths"; fixture "allfalse.blif"; "--jobs=0" ] in
  check "bad --jobs rejected" true (jobs_code <> 0);
  List.iter
    (fun bad ->
      let code, _, err = run [ "paths"; fixture "allfalse.blif"; "--band=" ^ bad ] in
      check_int (Printf.sprintf "--band %s exits like --jobs 0" bad) jobs_code code;
      check_int
        (Printf.sprintf "--band %s stderr shape matches --jobs" bad)
        (List.length jobs_err) (List.length err);
      check
        (Printf.sprintf "--band %s first line is the full diagnostic" bad)
        true
        (match err with
        | line :: _ ->
            let has needle =
              let n = String.length needle and len = String.length line in
              let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
              go 0
            in
            has "BAND" && has bad
        | [] -> false))
    [ "0"; "-0.5"; "1.5"; "abc" ];
  (* The closed boundary still parses. *)
  let code, _, _ = run [ "paths"; fixture "allfalse.blif"; "--band"; "1.0" ] in
  check_int "--band 1.0 accepted" 0 code

let test_last_validation () =
  (* emask report --last 0 (or negative) would silently report on
     nothing; it must fail exactly like bad --jobs: same exit code,
     one-line diagnostic naming the offending value. *)
  let jobs_code, _, jobs_err = run [ "paths"; fixture "allfalse.blif"; "--jobs=0" ] in
  check "bad --jobs rejected" true (jobs_code <> 0);
  List.iter
    (fun bad ->
      let code, _, err = run [ "report"; "--ledger"; "/dev/null"; "--last=" ^ bad ] in
      check_int (Printf.sprintf "--last %s exits like --jobs 0" bad) jobs_code code;
      check_int
        (Printf.sprintf "--last %s stderr shape matches --jobs" bad)
        (List.length jobs_err) (List.length err);
      check
        (Printf.sprintf "--last %s first line is the full diagnostic" bad)
        true
        (match err with
        | line :: _ ->
            let has needle =
              let n = String.length needle and len = String.length line in
              let rec go i = i + n <= len && (String.sub line i n = needle || go (i + 1)) in
              go 0
            in
            has "--last" && has bad
        | [] -> false))
    [ "0"; "-3"; "abc" ];
  (* The smallest sensible value still parses (an empty ledger is fine). *)
  let code, _, _ = run [ "report"; "--ledger"; "/dev/null"; "--last"; "1" ] in
  check_int "--last 1 accepted" 0 code

let test_eco_smoke () =
  (* emask eco with an empty edit sequence is the identity analysis:
     nothing dirty, and --check confirms incremental = full. *)
  let edits = Filename.temp_file "emask_edits" ".eco" in
  let oc = open_out edits in
  output_string oc "# no edits\n";
  close_out oc;
  let code, out, _ =
    run [ "eco"; fixture "allfalse.blif"; "--edits"; edits; "--check" ]
  in
  Sys.remove edits;
  check_int "eco clean exit" 0 code;
  let text = String.concat "\n" out in
  let has needle =
    let n = String.length needle and len = String.length text in
    let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check "nothing dirty" true (has "dirty cone: 0 of");
  check "check passes" true (has "canonical forms identical")

let last_line = function [] -> "" | lines -> List.nth lines (List.length lines - 1)

let test_paths_examples () =
  (* The CI smoke contract: clean exit, final verdict tally, zero
     Unknown on every shipped example. *)
  List.iter
    (fun name ->
      let code, out, _ = run [ "paths"; example name ] in
      check_int (name ^ " clean exit") 0 code;
      let last = last_line out in
      check (name ^ " verdict line") true
        (String.length last >= 9 && String.sub last 0 9 = "verdicts:");
      check (name ^ " zero unknown") true
        (let suffix = ", 0 unknown" in
         let k = String.length suffix and n = String.length last in
         n >= k && String.sub last (n - k) k = suffix))
    [ "full_adder.blif"; "mux4.blif"; "parity8.blif" ]

let test_paths_jobs_identical () =
  let outputs =
    List.map
      (fun jobs ->
        let code, out, _ =
          run
            [ "paths"; example "parity8.blif"; "--band"; "0.4"; "--json";
              "--jobs"; string_of_int jobs ]
        in
        check_int (Printf.sprintf "jobs=%d clean exit" jobs) 0 code;
        String.concat "\n" out)
      [ 1; 2; 4; 8 ]
  in
  match outputs with
  | base :: rest ->
      List.iteri
        (fun i o -> check (Printf.sprintf "jobs run %d identical" (i + 2)) true (o = base))
        rest
  | [] -> Alcotest.fail "no outputs"

let test_paths_diags () =
  (* allfalse at a narrow band: STA004 + MASK005 surface, exit stays 0
     (warnings), and --fail-on warning raises it to 1. *)
  let code, out, _ = run [ "paths"; fixture "allfalse.blif"; "--band"; "0.2" ] in
  check_int "warnings exit 0" 0 code;
  let text = String.concat "\n" out in
  let has needle =
    let n = String.length needle and len = String.length text in
    let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check "STA004 reported" true (has "STA004");
  check "MASK005 reported" true (has "MASK005");
  let code, _, _ =
    run [ "paths"; fixture "allfalse.blif"; "--band"; "0.2"; "--fail-on"; "warning" ]
  in
  check_int "fail-on warning exits 1" 1 code

let contains text needle =
  let n = String.length needle and len = String.length text in
  let rec go i = i + n <= len && (String.sub text i n = needle || go (i + 1)) in
  go 0

let test_client_flags () =
  (* emask client JOB takes exactly the one-shot JOB's flags: --band is
     a paths/eco parameter, so on a lint job it is a usage error (the
     command line is rejected before any connection is made). *)
  let code, _, err = run [ "client"; "lint"; "cmb"; "--band"; "0.3" ] in
  check_int "client lint --band is a usage error" 124 code;
  check "the diagnostic names --band" true
    (match err with line :: _ -> contains line "--band" | [] -> false)

let test_jobs_default () =
  (* --jobs defaults to 1 for every job, whatever EMASK_JOBS says (only
     emask serve reads it, for its worker count): eco JSON echoes 1, and
     a malformed EMASK_JOBS does not fail a one-shot run. *)
  let edits = Filename.temp_file "emask_edits" ".eco" in
  List.iter
    (fun env ->
      let code, out, _ = run ~env [ "eco"; "cmb"; "--edits"; edits; "--json" ] in
      check_int (env ^ "eco exits 0") 0 code;
      check (env ^ "eco JSON echoes jobs 1") true
        (contains (String.concat "\n" out) "\"jobs\":1,"))
    [ ""; "EMASK_JOBS=3 " ];
  Sys.remove edits;
  let code, _, _ = run ~env:"EMASK_JOBS=abc " [ "spcf"; "cmb" ] in
  check_int "spcf ignores a malformed EMASK_JOBS" 0 code

let () =
  Alcotest.run "cli"
    [
      ( "emask",
        [
          Alcotest.test_case "theta validation" `Quick test_theta_validation;
          Alcotest.test_case "band validation" `Quick test_band_validation;
          Alcotest.test_case "last validation" `Quick test_last_validation;
          Alcotest.test_case "eco smoke" `Quick test_eco_smoke;
          Alcotest.test_case "paths examples" `Quick test_paths_examples;
          Alcotest.test_case "paths jobs identical" `Quick test_paths_jobs_identical;
          Alcotest.test_case "paths diagnostics" `Quick test_paths_diags;
          Alcotest.test_case "client flags" `Quick test_client_flags;
          Alcotest.test_case "jobs default" `Quick test_jobs_default;
        ] );
    ]
