(* The BENCH_churn.json contract and the CLI surface around the
   incremental engine.

   The golden file pins the benchmark's JSON schema — CI dashboards and
   the gate checks in bench/churn_bench.ml parse these exact keys, so a
   rename or type change must show up here as a deliberate golden
   update, not as a silent drift. The CLI tests drive the real bmp
   binary (a dune dependency of this test) to pin the [--engine] flag's
   help text, its accepted values, and the engine's inertness on real
   replays. *)

module Json = Flowgraph.Json

(* Anchor data and binary paths at the test executable, so the suite
   works both under `dune runtest` (cwd = test dir) and `dune exec`
   from the repo root. *)
let at path = Filename.concat (Filename.dirname Sys.executable_name) path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let parse_golden () =
  match Json.parse (read_file (at "golden/bench_churn_schema.json")) with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "golden bench schema unreadable: %s" msg

let num what doc key =
  match Option.map Json.to_float (Json.member key doc) with
  | Some (Ok x) -> x
  | _ -> Alcotest.failf "%s: missing or non-numeric %S" what key

let bool_ what doc key =
  match Json.member key doc with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "%s: missing or non-boolean %S" what key

let test_bench_schema_golden () =
  let doc = parse_golden () in
  (match Json.member "benchmark" doc with
  | Some (Json.Str "churn") -> ()
  | _ -> Alcotest.fail "benchmark key must be \"churn\"");
  Alcotest.(check (float 0.)) "overhead gate" 3.0 (num "top" doc "gate_overhead_max");
  Alcotest.(check (float 0.)) "speedup gate" 5.0
    (num "top" doc "gate_incremental_speedup_min");
  Alcotest.(check (float 0.)) "speedup gate scope" 10000.
    (num "top" doc "gate_incremental_speedup_nodes");
  Alcotest.(check (float 0.)) "delta audit gate" 10.0
    (num "top" doc "gate_delta_audit_speedup_min");
  Alcotest.(check (float 0.)) "delta audit gate scope" 10000.
    (num "top" doc "gate_delta_audit_speedup_nodes");
  let rows =
    match Json.member "rows" doc with
    | Some (Json.Arr rows) -> rows
    | _ -> Alcotest.fail "rows must be an array"
  in
  Alcotest.(check bool) "at least one row" true (rows <> []);
  List.iteri
    (fun i row ->
      let what = Printf.sprintf "row %d" i in
      List.iter
        (fun key -> ignore (num what row key))
        [
          "nodes"; "events"; "unaudited_s"; "audited_s"; "events_per_s";
          "overhead"; "incremental_s"; "full_recompute_s"; "speedup";
          "delta_audit_s"; "strict_audit_s"; "delta_audit_speedup";
          "minor_words_per_event"; "major_collections";
        ];
      ignore (bool_ what row "identical");
      ignore (bool_ what row "agree");
      if num what row "incremental_s" <= 0. then
        Alcotest.failf "%s: incremental_s must be positive" what;
      if num what row "delta_audit_s" <= 0. then
        Alcotest.failf "%s: delta_audit_s must be positive" what;
      if
        num what row "nodes" >= num "top" doc "gate_incremental_speedup_nodes"
        && num what row "speedup" < num "top" doc "gate_incremental_speedup_min"
      then Alcotest.failf "%s: golden sample itself fails the speedup gate" what;
      if
        num what row "nodes" >= num "top" doc "gate_delta_audit_speedup_nodes"
        && num what row "delta_audit_speedup"
           < num "top" doc "gate_delta_audit_speedup_min"
      then
        Alcotest.failf "%s: golden sample itself fails the delta audit gate"
          what)
    rows

(* The BENCH_tracker.json contract: same discipline as the churn golden
   above — the journaling-overhead gate keys are parsed by CI, so drift
   must be a deliberate golden update. *)
let test_bench_tracker_schema_golden () =
  let doc =
    match Json.parse (read_file (at "golden/bench_tracker_schema.json")) with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "golden tracker schema unreadable: %s" msg
  in
  (match Json.member "benchmark" doc with
  | Some (Json.Str "tracker") -> ()
  | _ -> Alcotest.fail "benchmark key must be \"tracker\"");
  Alcotest.(check (float 0.)) "batching gate" 2.0 (num "top" doc "gate_min_speedup");
  Alcotest.(check (float 0.)) "journal overhead gate" 1.5
    (num "top" doc "gate_journal_overhead_max");
  Alcotest.(check (float 0.)) "gate scope" 10000. (num "top" doc "gate_nodes");
  ignore (num "top" doc "journaled_rps");
  if num "top" doc "speedup_at_gate" < num "top" doc "gate_min_speedup" then
    Alcotest.fail "golden sample itself fails the batching gate";
  if
    num "top" doc "journal_overhead_at_gate"
    > num "top" doc "gate_journal_overhead_max"
  then Alcotest.fail "golden sample itself fails the journaling overhead gate";
  let rows =
    match Json.member "rows" doc with
    | Some (Json.Arr rows) -> rows
    | _ -> Alcotest.fail "rows must be an array"
  in
  let modes = ref [] in
  List.iteri
    (fun i row ->
      let what = Printf.sprintf "row %d" i in
      List.iter
        (fun key -> ignore (num what row key))
        [ "nodes"; "requests"; "batch"; "events"; "seconds"; "requests_per_s" ];
      match Json.member "mode" row with
      | Some (Json.Str m) -> modes := m :: !modes
      | _ -> Alcotest.failf "%s: missing mode" what)
    rows;
  List.iter
    (fun m ->
      Alcotest.(check bool) (m ^ " rows present") true (List.mem m !modes))
    [ "unbatched"; "batched"; "journaled" ]

let test_engine_names_roundtrip () =
  List.iter
    (fun e ->
      match Churn.Audit.engine_of_name (Churn.Audit.engine_name e) with
      | Some e' when e' = e -> ()
      | _ -> Alcotest.fail "engine_name / engine_of_name do not round-trip")
    [ Churn.Audit.Full; Churn.Audit.Incremental ];
  Alcotest.(check bool) "unknown name rejected" true
    (Churn.Audit.engine_of_name "warm" = None)

let test_audit_names_roundtrip () =
  List.iter
    (fun l ->
      match Churn.Audit.of_name (Churn.Audit.level_name l) with
      | Some l' when l' = l -> ()
      | _ ->
        Alcotest.failf "audit level %S does not round-trip"
          (Churn.Audit.level_name l))
    [
      Churn.Audit.Off; Churn.Audit.Check; Churn.Audit.Strict;
      Churn.Audit.Certificate { strict_every = 0 };
      Churn.Audit.Certificate { strict_every = 7 };
      Churn.Audit.Certificate { strict_every = Churn.Audit.default_backstop };
    ];
  Alcotest.(check bool) "\"on\" is Check" true
    (Churn.Audit.of_name "on" = Some Churn.Audit.Check);
  Alcotest.(check bool) "bare certificate gets the default backstop" true
    (Churn.Audit.of_name "certificate"
    = Some
        (Churn.Audit.Certificate
           { strict_every = Churn.Audit.default_backstop }));
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Churn.Audit.of_name s = None))
    [ "certificate:"; "certificate:-1"; "certificate:x"; "paranoid"; "" ]

(* {2 Driving the real binary} *)

let bmp = at "../bin/bmp.exe"

let run_capture cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let run_ok cmd =
  match run_capture cmd with
  | Unix.WEXITED 0, out -> out
  | _, out -> Alcotest.failf "command failed: %s\n%s" cmd out

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Generate a fresh 16-node instance in a throwaway directory and hand
   its path (plus the directory, for scratch files) to [k]. *)
let with_instance k =
  let dir = Filename.temp_file "bmp_cli" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      ignore
        (run_ok
           (Printf.sprintf "%s generate -n 16 --seed 3 -o %s 2>/dev/null" bmp
              (Filename.quote (Filename.concat dir "cli"))));
      k ~dir (Filename.concat dir "cli-0001.txt"))

let test_churn_run_help_covers_engine () =
  let help = run_ok (bmp ^ " churn run --help=plain 2>/dev/null") in
  List.iter
    (fun needle ->
      if not (contains help needle) then
        Alcotest.failf "churn run --help does not mention %S" needle)
    [ "--engine"; "full"; "incremental"; "warm-start"; "--audit"; "--policy" ]

let test_churn_run_engine_flag () =
  with_instance (fun ~dir:_ inst ->
      let replay engine =
        run_ok
          (Printf.sprintf
             "%s churn run %s --events 40 --seed 11 --audit strict --engine %s"
             bmp (Filename.quote inst) engine)
      in
      let full = replay "full" and incr = replay "incremental" in
      (* Identical replays modulo the one line naming the engine. *)
      let strip s =
        String.split_on_char '\n' s
        |> List.filter (fun l -> not (contains l "engine"))
        |> String.concat "\n"
      in
      Alcotest.(check string) "engine knob never changes replay output"
        (strip full) (strip incr);
      Alcotest.(check bool) "engine line reported" true
        (contains incr "incremental");
      match run_capture (Printf.sprintf "%s churn run %s --engine warm 2>&1" bmp (Filename.quote inst)) with
      | Unix.WEXITED 2, _ -> ()
      | Unix.WEXITED n, out ->
        Alcotest.failf "bogus --engine value: expected exit 2, got %d\n%s" n out
      | _, _ -> Alcotest.fail "bogus --engine value: killed by a signal")

let test_churn_run_audit_flag () =
  with_instance (fun ~dir:_ inst ->
      let replay audit =
        run_ok
          (Printf.sprintf
             "%s churn run %s --events 40 --seed 11 --engine incremental \
              --audit %s --timeline"
             bmp (Filename.quote inst) audit)
      in
      (* The audit level is an observer: a certificate replay matches the
         strict replay byte for byte, modulo the one line naming it. *)
      let strict = replay "strict" and cert = replay "certificate:4" in
      let strip s =
        String.split_on_char '\n' s
        |> List.filter (fun l -> not (contains l "audit"))
        |> String.concat "\n"
      in
      Alcotest.(check string) "audit knob never changes replay output"
        (strip strict) (strip cert);
      Alcotest.(check bool) "audit line reported" true
        (contains cert "certificate:4");
      match
        run_capture
          (Printf.sprintf "%s churn run %s --audit paranoid 2>&1" bmp
             (Filename.quote inst))
      with
      | Unix.WEXITED 2, _ -> ()
      | Unix.WEXITED n, out ->
        Alcotest.failf "bogus --audit value: expected exit 2, got %d\n%s" n out
      | _, _ -> Alcotest.fail "bogus --audit value: killed by a signal")

(* {2 Exit-code contract}

   Usage and CLI parse errors exit 2; domain failures (infeasible rate,
   a scheme that misses its recorded target) exit 1. Scripts and CI
   lean on this split to tell "you called it wrong" from "the artifact
   is bad", so pin both classes against the real binary. *)

let check_exit what expected cmd =
  match run_capture cmd with
  | Unix.WEXITED n, out ->
    if n <> expected then
      Alcotest.failf "%s: expected exit %d, got %d\n%s" what expected n out
  | _, out -> Alcotest.failf "%s: killed by a signal\n%s" what out

let test_usage_errors_exit_2 () =
  check_exit "unknown subcommand" 2 (bmp ^ " frobnicate 2>&1");
  check_exit "unknown nested subcommand" 2 (bmp ^ " scheme frobnicate 2>&1");
  check_exit "unknown flag" 2 (bmp ^ " generate --no-such-flag 2>&1");
  check_exit "bad flag value" 2
    (bmp ^ " churn run /nonexistent.txt --engine warm 2>&1")

let test_domain_failures_exit_1 () =
  with_instance (fun ~dir inst ->
      let q = Filename.quote inst in
      check_exit "infeasible rate" 1
        (Printf.sprintf "%s scheme build %s --rate 1e9 2>&1" bmp q);
      (* A scheme whose recorded target rate is tampered above anything
         achievable must fail `scheme check` with exit 1 — that is the
         "failed verification" leg of the contract. *)
      let good = Filename.concat dir "good.json" in
      let bad = Filename.concat dir "bad.json" in
      ignore
        (run_ok
           (Printf.sprintf "%s scheme build %s -o %s 2>/dev/null" bmp q
              (Filename.quote good)));
      check_exit "intact scheme passes check" 0
        (Printf.sprintf "%s scheme check %s >/dev/null 2>&1" bmp
           (Filename.quote good));
      let doc = read_file good in
      let needle = "\"rate\": " in
      let start =
        let n = String.length doc and nn = String.length needle in
        let rec go i =
          if i + nn > n then Alcotest.fail "scheme JSON lacks a rate field"
          else if String.sub doc i nn = needle then i + nn
          else go (i + 1)
        in
        go 0
      in
      let stop = String.index_from doc start ',' in
      let oc = open_out_bin bad in
      output_string oc (String.sub doc 0 start);
      output_string oc "1000000";
      output_string oc (String.sub doc stop (String.length doc - stop));
      close_out oc;
      check_exit "failed verification" 1
        (Printf.sprintf "%s scheme check %s >/dev/null 2>&1" bmp
           (Filename.quote bad)))

(* {2 Graceful drain on SIGTERM}

   The daemon's SIGTERM contract through the real binary: mutations
   sitting in a wide-open admission window (60 s, batch 8 — nothing
   would flush on its own) must be flushed, answered, journaled and
   covered by a final checkpoint before the process exits 0. A
   follow-up --restore run then replays nothing and reports the same
   committed state. *)
let test_sigterm_drains_and_checkpoints () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_instance (fun ~dir inst ->
      let sock = Filename.concat dir "t.sock" in
      let journal = Filename.concat dir "journal" in
      let state_out = Filename.concat dir "final.state.json" in
      let trace_out = Filename.concat dir "final.trace.json" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process bmp
          [|
            bmp; "tracker"; "serve"; inst; "--socket"; sock;
            "--deterministic"; "--batch"; "8"; "--window-ms"; "60000";
            "--journal"; journal; "--state-out"; state_out; "--trace-out";
            trace_out;
          |]
          devnull devnull devnull
      in
      Unix.close devnull;
      let fd =
        let deadline = Unix.gettimeofday () +. 10. in
        let rec connect () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () -> fd
          | exception
              Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when Unix.gettimeofday () < deadline ->
            Unix.close fd;
            Unix.sleepf 0.02;
            connect ()
        in
        connect ()
      in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let send l =
        output_string oc l;
        output_char oc '\n';
        flush oc
      in
      (* A query round-trip proves the daemon is inside its serve loop
         before the mutations go out. *)
      send "{\"type\": \"query\"}";
      ignore (input_line ic);
      send "{\"type\": \"join\", \"bandwidth\": 9, \"guarded\": false}";
      send "{\"type\": \"leave\", \"pick\": 2}";
      (* Give the select loop a beat to admit both into the pending
         window (nothing will flush it: batch 8, window 60 s)... *)
      Unix.sleepf 0.3;
      (* ...then terminate. *)
      Unix.kill pid Sys.sigterm;
      let acks = [ input_line ic; input_line ic ] in
      List.iter
        (fun ack ->
          match Json.parse ack with
          | Ok v -> (
            match Json.member "status" v with
            | Some (Json.Str "ok") -> ()
            | _ -> Alcotest.failf "drained request not ok: %s" ack)
          | Error e -> Alcotest.failf "unparseable drain ack (%s): %s" e ack)
        acks;
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n -> Alcotest.failf "SIGTERM exit %d, expected 0" n
      | _ -> Alcotest.fail "daemon killed rather than exiting");
      close_in_noerr ic;
      Alcotest.(check bool) "final state snapshot written" true
        (Sys.file_exists state_out);
      (match Churn.Trace.of_json (read_file trace_out) with
      | Ok t ->
        Alcotest.(check int) "both drained events in the committed trace" 2
          (Churn.Trace.length t)
      | Error e -> Alcotest.failf "trace-out unreadable: %s" e);
      (* The final checkpoint covers the drained batch: restore replays
         it into the same counters. *)
      let out =
        run_ok
          (Printf.sprintf
             "printf '{\"type\": \"query\"}\\n' | %s tracker serve %s \
              --deterministic --journal %s --restore 2>/dev/null"
             bmp (Filename.quote inst) (Filename.quote journal))
      in
      match Json.parse (String.trim out) with
      | Ok v -> (
        match
          Option.bind (Json.member "query" v) (fun q -> Json.member "events" q)
        with
        | Some (Json.Num n) ->
          Alcotest.(check int) "restore sees the drained events" 2
            (int_of_float n)
        | _ -> Alcotest.failf "restore query lacks events: %s" out)
      | Error e -> Alcotest.failf "restore query unparseable (%s): %s" e out)

(* {2 Journal directory single ownership}

   Journal.start holds an fcntl lock on DIR/lock for the daemon's
   lifetime: a second daemon pointed at the same --journal directory
   must be refused at startup (exit 2 on the Sys_error) instead of
   interleaving appends into the live WAL — or, without --restore,
   deleting it out from under the running daemon. fcntl locks never
   conflict within one process, so the contender has to be the real
   binary; the lock dies with the process, so after a clean shutdown
   the directory is reusable. *)
let test_journal_dir_single_owner () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  with_instance (fun ~dir inst ->
      let sock = Filename.concat dir "t.sock" in
      let journal = Filename.concat dir "journal" in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid =
        Unix.create_process bmp
          [|
            bmp; "tracker"; "serve"; inst; "--socket"; sock;
            "--deterministic"; "--journal"; journal;
          |]
          devnull devnull devnull
      in
      Unix.close devnull;
      let fd =
        let deadline = Unix.gettimeofday () +. 10. in
        let rec connect () =
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          match Unix.connect fd (Unix.ADDR_UNIX sock) with
          | () -> fd
          | exception
              Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when Unix.gettimeofday () < deadline ->
            Unix.close fd;
            Unix.sleepf 0.02;
            connect ()
        in
        connect ()
      in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let send l =
        output_string oc l;
        output_char oc '\n';
        flush oc
      in
      (* Round-trip a query so the daemon provably holds the lock. *)
      send "{\"type\": \"query\"}";
      ignore (input_line ic);
      let contend extra =
        Printf.sprintf
          "printf '' | %s tracker serve %s --deterministic --journal %s%s \
           >/dev/null 2>&1"
          bmp (Filename.quote inst) (Filename.quote journal) extra
      in
      check_exit "second daemon refused" 2 (contend "");
      check_exit "second daemon refused (--restore)" 2 (contend " --restore");
      (* The refusals must not have touched the owner: it still serves,
         and its WAL is still the one it wrote. *)
      send "{\"type\": \"join\", \"bandwidth\": 9, \"guarded\": false}";
      (match Json.parse (input_line ic) with
      | Ok v -> (
        match Json.member "status" v with
        | Some (Json.Str "ok") -> ()
        | _ -> Alcotest.fail "owner no longer serves after contender")
      | Error e -> Alcotest.failf "owner response unparseable: %s" e);
      send "{\"type\": \"shutdown\"}";
      ignore (input_line ic);
      (match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n -> Alcotest.failf "owner exit %d, expected 0" n
      | _ -> Alcotest.fail "owner killed rather than exiting");
      close_in_noerr ic;
      (* Lock released with the process: a restore run owns the dir and
         sees the committed event. *)
      let out =
        run_ok
          (Printf.sprintf
             "printf '{\"type\": \"query\"}\\n' | %s tracker serve %s \
              --deterministic --journal %s --restore 2>/dev/null"
             bmp (Filename.quote inst) (Filename.quote journal))
      in
      match Json.parse (String.trim out) with
      | Ok v -> (
        match
          Option.bind (Json.member "query" v) (fun q -> Json.member "events" q)
        with
        | Some (Json.Num n) ->
          Alcotest.(check int) "restore sees the owner's event" 1
            (int_of_float n)
        | _ -> Alcotest.failf "restore query lacks events: %s" out)
      | Error e -> Alcotest.failf "restore query unparseable (%s): %s" e out)

(* {2 Transport golden}

   The outputs of every command that runs randomized chunk transport —
   E11/E14/E15/E16, selfcheck and both simulate modes — pinned byte for
   byte. The transport engine behind them may change; what they print
   may not. *)
let transport_goldens fig1 =
  [
    ("exp massoulie -j 1", "exp_massoulie.txt");
    ("exp jitter -j 1", "exp_jitter.txt");
    ("exp depth -j 1", "exp_depth.txt");
    ("exp oneport -j 1", "exp_oneport.txt");
    ("selfcheck", "selfcheck.txt");
    ("simulate " ^ fig1, "simulate.txt");
    ("simulate " ^ fig1 ^ " --streaming --chunks 500", "simulate_streaming.txt");
  ]

let test_transport_golden () =
  List.iter
    (fun (args, golden) ->
      let out = run_ok (Printf.sprintf "%s %s 2>/dev/null" bmp args) in
      let expected = read_file (at (Filename.concat "golden/transport" golden)) in
      if out <> expected then
        Alcotest.failf "bmp %s differs from golden/transport/%s:\n%s" args
          golden out)
    (transport_goldens (Filename.quote (at "../examples/fig1.instance")))

let suites =
  [
    ( "bench-cli",
      [
        Alcotest.test_case "BENCH_churn.json schema golden" `Quick
          test_bench_schema_golden;
        Alcotest.test_case "BENCH_tracker.json schema golden" `Quick
          test_bench_tracker_schema_golden;
        Alcotest.test_case "SIGTERM drains, checkpoints and exits 0" `Quick
          test_sigterm_drains_and_checkpoints;
        Alcotest.test_case "journal dir refuses a second daemon" `Quick
          test_journal_dir_single_owner;
        Alcotest.test_case "engine names round-trip" `Quick
          test_engine_names_roundtrip;
        Alcotest.test_case "audit level names round-trip" `Quick
          test_audit_names_roundtrip;
        Alcotest.test_case "churn run --audit certificate replays identically"
          `Quick test_churn_run_audit_flag;
        Alcotest.test_case "churn run --help covers --engine" `Quick
          test_churn_run_help_covers_engine;
        Alcotest.test_case "churn run --engine replays identically" `Quick
          test_churn_run_engine_flag;
        Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors_exit_2;
        Alcotest.test_case "domain failures exit 1" `Quick
          test_domain_failures_exit_1;
        Alcotest.test_case "transport outputs byte-identical to golden"
          `Quick test_transport_golden;
      ] );
  ]
