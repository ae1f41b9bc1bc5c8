(* Tests for the flat-arena streaming dataplane: the event heap's
   ordering and recycling contracts, bit-exact differential equality
   against the Sim reference oracle on random acyclic, cyclic and
   horizon-truncated overlays in every mode combination, the
   rate-convergence property the ISSUE gates on, and byte-determinism
   of the metrics JSON when sweep cells shard through Parallel.Pool. *)

module G = Flowgraph.Graph
module D = Stream.Dataplane
module Sim = Oracle.Sim

(* {2 Event heap} *)

let drain h =
  let rec go acc =
    if Stream.Eheap.pop h then
      go ((Stream.Eheap.popped_time h, Stream.Eheap.popped_payload h) :: acc)
    else List.rev acc
  in
  go []

let test_eheap_order () =
  let h = Stream.Eheap.create ~capacity:4 () in
  Alcotest.(check bool) "empty" true (Stream.Eheap.is_empty h);
  List.iteri
    (fun i k -> Stream.Eheap.add h k i)
    [ 5.; 1.; 3.; 2.; 4.; 0.5; 2.5 ];
  Alcotest.(check int) "size" 7 (Stream.Eheap.size h);
  Alcotest.(check (option (float 0.))) "peek" (Some 0.5)
    (Stream.Eheap.peek_time h);
  Alcotest.(check (list (float 0.))) "sorted drain"
    [ 0.5; 1.; 2.; 2.5; 3.; 4.; 5. ]
    (List.map fst (drain h));
  Alcotest.(check bool) "drained" true (Stream.Eheap.is_empty h)

let test_eheap_fifo_ties () =
  (* Equal keys pop in insertion order — the determinism contract the
     differential oracle rests on. *)
  let h = Stream.Eheap.create () in
  for p = 0 to 9 do
    Stream.Eheap.add h 7. p
  done;
  Stream.Eheap.add h 3. 100;
  Alcotest.(check (list (pair (float 0.) int))) "FIFO among ties"
    ((3., 100) :: List.init 10 (fun p -> (7., p)))
    (drain h)

let test_eheap_freelist_recycles () =
  (* Interleaved add/pop far beyond the initial capacity must never
     grow the arena: pops recycle ids through the free-list. *)
  let h = Stream.Eheap.create ~capacity:4 () in
  for round = 0 to 999 do
    Stream.Eheap.add h (float_of_int round) round;
    Stream.Eheap.add h (float_of_int (10_000 + round)) (-round);
    Alcotest.(check bool) "pop" true (Stream.Eheap.pop h);
    Alcotest.(check int) "oldest first" round (Stream.Eheap.popped_payload h)
  done;
  (* 1000 leftovers (the far-future events): the arena did grow, but
     pops after heavy recycling still drain in order. *)
  Alcotest.(check int) "leftovers" 1000 (Stream.Eheap.size h);
  let times = List.map fst (drain h) in
  Alcotest.(check (list (float 0.))) "still sorted" (List.sort compare times)
    times

(* {2 Differential oracle: Dataplane(Oracle_reservoir) == Sim} *)

let small_instance ~n ~seed =
  let rng = Prng.Splitmix.create seed in
  Platform.Generator.generate
    { Platform.Generator.total = n; p_open = 0.4;
      dist = Prng.Dist.Uniform { lo = 1.; hi = 10. } }
    rng

(* Every field the two engines share, compared bit for bit. [None] when
   they agree, otherwise the first field that differs. *)
let oracle_mismatch (a : Sim.result) (b : D.result) =
  let same x y = Float.equal x y in
  if a.Sim.delivered_all <> b.D.delivered_all then Some "delivered_all"
  else if not (same a.Sim.completion_time b.D.completion_time) then
    Some "completion_time"
  else if
    Array.length a.Sim.per_node_completion
    <> Array.length b.D.per_node_completion
    || not
         (Array.for_all2 same a.Sim.per_node_completion
            b.D.per_node_completion)
  then Some "per_node_completion"
  else if a.Sim.transfers <> b.D.transfers then Some "transfers"
  else if a.Sim.duplicates <> b.D.duplicates then Some "duplicates"
  else if not (same a.Sim.max_lag b.D.max_lag) then Some "max_lag"
  else if not (same a.Sim.efficiency b.D.efficiency) then Some "efficiency"
  else None

let oracle_config (sc : Sim.config) =
  {
    D.chunks = sc.Sim.chunks;
    chunk_size = sc.Sim.chunk_size;
    seed = sc.Sim.seed;
    max_time = sc.Sim.max_time;
    streaming = sc.Sim.streaming;
    jitter = sc.Sim.jitter;
    dedup_inflight = sc.Sim.dedup_inflight;
    discipline = D.Oracle_reservoir;
  }

let check_oracle_equal name (sc : Sim.config) g csr ~rate =
  let a = Sim.simulate ~config:sc g ~rate in
  let b = D.run ~config:(oracle_config sc) csr ~rate in
  match oracle_mismatch a b with
  | None -> ()
  | Some field -> Alcotest.failf "%s: %s differs from the oracle" name field

(* Random overlays of three kinds, each as the (Graph, CSR) pair the two
   engines read, with its rate and horizon:
   - 0: Low_degree's acyclic overlay on a random small platform;
   - 1: Cyclic_open's Theorem 5.2 overlay on a random all-open platform
        near E11's cyclic example (a deficit makes it cyclic);
   - 2: a random digraph, cycles allowed, whose sliver arcs take 20-200
        time units per chunk against a horizon of 60 — some are disabled
        up front, the rest cut runs short at the horizon. *)
let random_overlay ~kind ~n ~seed =
  let rng = Prng.Splitmix.create seed in
  let of_scheme scheme =
    Some
      ( Broadcast.Scheme.graph scheme,
        Broadcast.Scheme.snapshot scheme,
        Broadcast.Scheme.rate scheme,
        Sim.default_config.Sim.max_time )
  in
  match kind with
  | 0 ->
    let inst = small_instance ~n ~seed in
    if fst (Broadcast.Greedy.optimal_acyclic inst) <= 1e-9 then None
    else of_scheme (snd (Broadcast.Low_degree.build_optimal inst))
  | 1 ->
    let bandwidth =
      Array.init (n + 1) (fun i ->
          if i = 0 then 5. else 3. +. (2. *. Prng.Splitmix.next_float rng))
    in
    let inst, _ =
      Platform.Instance.normalize
        (Platform.Instance.create ~bandwidth ~n ~m:0 ())
    in
    of_scheme (Broadcast.Cyclic_open.build inst)
  | _ ->
    let g = G.create n in
    for v = 1 to n - 1 do
      for _ = 0 to Prng.Splitmix.next_below rng 3 do
        let u = Prng.Splitmix.next_below rng n in
        if u <> v && G.edge_weight g ~src:u ~dst:v = 0. then
          let w =
            if Prng.Splitmix.next_below rng 4 = 0 then
              0.005 +. (0.045 *. Prng.Splitmix.next_float rng)
            else 1. +. (9. *. Prng.Splitmix.next_float rng)
          in
          G.add_edge g ~src:u ~dst:v w
      done
    done;
    Some (g, Flowgraph.Csr.of_graph g, 2., 60.)

let jitters = [| 0.; 0.15; 0.5 |]

let prop_oracle_differential =
  QCheck.Test.make ~name:"oracle differential (generator)" ~count:300
    QCheck.(
      pair
        (triple (int_range 0 2) (int_range 2 14) (int_range 0 100_000))
        (quad bool bool (int_range 0 2) (int_range 1 150)))
    (fun ((kind, n, seed), (streaming, dedup_inflight, j, chunks)) ->
      match random_overlay ~kind ~n ~seed:(Int64.of_int seed) with
      | None -> QCheck.assume_fail ()
      | Some (g, csr, rate, max_time) -> (
        let sc =
          {
            Sim.default_config with
            chunks;
            seed = Int64.of_int (seed + 1);
            max_time;
            streaming;
            jitter = jitters.(j);
            dedup_inflight;
          }
        in
        let a = Sim.simulate ~config:sc g ~rate in
        match oracle_mismatch a (D.run ~config:(oracle_config sc) csr ~rate) with
        | None -> true
        | Some field -> QCheck.Test.fail_reportf "%s differs from the oracle" field))

let test_oracle_differential_fig1 () =
  let rate, scheme = Broadcast.Low_degree.build_optimal Platform.Instance.fig1 in
  let g = Broadcast.Scheme.graph scheme in
  let csr = Broadcast.Scheme.snapshot scheme in
  check_oracle_equal "fig1" { Sim.default_config with chunks = 300 } g csr ~rate

(* {2 Dataplane behaviour on its own} *)

let fig1_snapshot () =
  let rate, scheme = Broadcast.Low_degree.build_optimal Platform.Instance.fig1 in
  (rate, Broadcast.Scheme.snapshot scheme)

let test_delivers_fig1 () =
  let rate, csr = fig1_snapshot () in
  let r = D.run ~config:{ D.default_config with chunks = 300 } csr ~rate in
  Alcotest.(check bool) "delivered" true r.D.delivered_all;
  Alcotest.(check int) "transfer count" (300 * 5) r.D.transfers;
  Alcotest.(check int) "no duplicates with dedup" 0 r.D.duplicates;
  Alcotest.(check bool) "efficiency sane" true
    (r.D.efficiency > 0.8 && r.D.efficiency <= 1.0 +. 1e-9);
  Alcotest.(check bool) "queues were used" true (r.D.peak_queue > 0);
  Alcotest.(check bool) "startup before completion" true
    (r.D.startup.D.max <= r.D.completion_time)

let test_disciplines_deliver () =
  let rate, csr = fig1_snapshot () in
  List.iter
    (fun discipline ->
      let r =
        D.run ~config:{ D.default_config with chunks = 128; discipline } csr ~rate
      in
      Alcotest.(check bool)
        (D.discipline_name discipline ^ " delivered")
        true r.D.delivered_all)
    [ D.Random_useful; D.Oracle_reservoir; D.Serve_in_order ]

let test_inorder_deterministic () =
  (* Serve_in_order consumes no randomness: any seed, same trajectory. *)
  let rate, csr = fig1_snapshot () in
  let run seed =
    D.run
      ~config:
        { D.default_config with chunks = 100; discipline = D.Serve_in_order; seed }
      csr ~rate
  in
  let a = run 1L and b = run 424242L in
  Alcotest.(check (float 0.)) "seed-independent" a.D.completion_time
    b.D.completion_time;
  Alcotest.(check int) "same transfers" a.D.transfers b.D.transfers

let test_dedup_off_duplicates () =
  let g = G.create 4 in
  G.add_edge g ~src:0 ~dst:1 10.;
  G.add_edge g ~src:0 ~dst:2 10.;
  G.add_edge g ~src:1 ~dst:2 0.5;
  G.add_edge g ~src:2 ~dst:3 10.;
  let csr = Flowgraph.Csr.of_graph g in
  let r =
    D.run
      ~config:{ D.default_config with chunks = 200; dedup_inflight = false }
      csr ~rate:10.
  in
  Alcotest.(check bool) "delivered" true r.D.delivered_all;
  Alcotest.(check bool) "some duplicates" true (r.D.duplicates > 0)

let test_undelivered_dead_overlay () =
  let g = G.create 3 in
  G.add_edge g ~src:0 ~dst:1 1.;
  let csr = Flowgraph.Csr.of_graph g in
  let r = D.run ~config:{ D.default_config with chunks = 10 } csr ~rate:1. in
  Alcotest.(check bool) "not delivered" false r.D.delivered_all;
  Alcotest.(check bool) "completion infinite" true
    (r.D.completion_time = infinity);
  Alcotest.(check (float 0.)) "achieved rate zero" 0. r.D.achieved_rate

(* {2 Rate convergence (ISSUE gate): achieved_rate -> verified rate} *)

let prop_rate_convergence =
  QCheck.Test.make ~name:"achieved rate converges to verified rate" ~count:15
    QCheck.(pair (int_range 6 18) (int_range 0 10_000))
    (fun (n, seed) ->
      let inst = small_instance ~n ~seed:(Int64.of_int (7 + seed)) in
      (* A degenerate draw (e.g. a zero-bandwidth source) has T* = 0:
         no scheme exists to converge to, and build_optimal would
         refuse the zero rate. Assume it away before building. *)
      QCheck.assume (fst (Broadcast.Greedy.optimal_acyclic inst) > 1e-9);
      let rate, scheme = Broadcast.Low_degree.build_optimal inst in
      QCheck.assume (rate > 1e-9);
      let csr = Broadcast.Scheme.snapshot scheme in
      (* dedup off: a sliver in-arc can otherwise hold a chunk hostage
         for its whole transfer time, putting a floor on completion
         that does not vanish with k (see Sim's dedup_inflight docs). *)
      let achieved chunks =
        let r =
          D.run
            ~config:{ D.default_config with chunks; dedup_inflight = false }
            csr ~rate
        in
        if not r.D.delivered_all then QCheck.assume_fail ();
        r.D.achieved_rate /. rate
      in
      let coarse = achieved 32 and fine = achieved 512 in
      (* Startup/pipelining losses shrink as k grows; at k = 512 the
         achieved rate must be within 25% of the verified rate and no
         worse than the coarse run (small tolerance for randomness). *)
      fine >= coarse -. 0.05 && fine > 0.75 && fine <= 1. +. 1e-9)

(* {2 Metrics JSON: byte-determinism across Parallel.Pool sharding} *)

let metrics_cells () =
  let rate, csr = fig1_snapshot () in
  let cells =
    [|
      { D.default_config with chunks = 40 };
      { D.default_config with chunks = 80; streaming = true };
      { D.default_config with chunks = 60; discipline = D.Serve_in_order };
      { D.default_config with chunks = 50; jitter = 0.2; dedup_inflight = false };
      { D.default_config with chunks = 70; discipline = D.Oracle_reservoir };
    |]
  in
  fun ~jobs ->
    Parallel.Pool.map_array ~jobs cells (fun config ->
        let r = D.run ~config csr ~rate in
        D.metrics_to_json ~config
          ~nodes:(Flowgraph.Csr.node_count csr)
          ~edges:(Flowgraph.Csr.edge_count csr)
          ~rate r)

let test_metrics_json_jobs_invariant () =
  let run = metrics_cells () in
  let a = run ~jobs:1 and b = run ~jobs:2 in
  Alcotest.(check (array string)) "jobs 1 vs 2 byte-identical" a b;
  Array.iter
    (fun s ->
      Alcotest.(check bool) "single line" false (String.contains s '\n');
      match Flowgraph.Json.parse s with
      | Error msg -> Alcotest.failf "metrics JSON unparseable: %s" msg
      | Ok doc -> (
          match Flowgraph.Json.member "format" doc with
          | Some (Flowgraph.Json.Str "bmp-stream-metrics") -> ()
          | _ -> Alcotest.fail "format key missing"))
    a

(* {2 BENCH_stream.json schema golden} *)

let at path = Filename.concat (Filename.dirname Sys.executable_name) path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_bench_stream_schema_golden () =
  let module Json = Flowgraph.Json in
  let doc =
    match Json.parse (read_file (at "golden/bench_stream_schema.json")) with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "golden bench schema unreadable: %s" msg
  in
  let num what d key =
    match Option.map Json.to_float (Json.member key d) with
    | Some (Ok x) -> x
    | _ -> Alcotest.failf "%s: missing or non-numeric %S" what key
  in
  (match Json.member "format" doc with
  | Some (Json.Str "bmp-stream-bench") -> ()
  | _ -> Alcotest.fail "format key must be \"bmp-stream-bench\"");
  Alcotest.(check (float 0.)) "version" 1. (num "top" doc "version");
  Alcotest.(check (float 0.)) "speedup gate" 20. (num "top" doc "gate_speedup_min");
  Alcotest.(check (float 0.)) "alloc gate" 16.
    (num "top" doc "gate_minor_words_per_event_max");
  Alcotest.(check (float 0.)) "rate gate" 1e6
    (num "top" doc "gate_events_per_s_min");
  let rows =
    match Json.member "rows" doc with
    | Some (Json.Arr rows) -> rows
    | _ -> Alcotest.fail "rows must be an array"
  in
  Alcotest.(check bool) "at least one row" true (rows <> []);
  List.iteri
    (fun i row ->
      let what = Printf.sprintf "row %d" i in
      (match Json.member "name" row with
      | Some (Json.Str _) -> ()
      | _ -> Alcotest.failf "%s: missing name" what);
      List.iter
        (fun key -> ignore (num what row key))
        [
          "nodes"; "edges"; "chunks"; "horizon"; "events"; "flat_s";
          "flat_events_per_s"; "minor_words_per_event"; "major_collections";
          "peak_rss_kb";
        ];
      (* legacy columns are null on the synthetic rows, numeric on the
         paper row — either way the key must be present. *)
      List.iter
        (fun key ->
          match Json.member key row with
          | Some (Json.Num _) | Some Json.Null -> ()
          | _ -> Alcotest.failf "%s: %S must be number or null" what key)
        [ "legacy_s"; "legacy_events_per_s"; "speedup"; "completion_time" ])
    rows;
  (* The paper row (the CI-gated cell) must be first and carry a real
     legacy measurement. *)
  match rows with
  | first :: _ -> (
      match (Json.member "name" first, Json.member "speedup" first) with
      | Some (Json.Str "paper-n1e4"), Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "first row must be paper-n1e4 with numeric speedup")
  | [] -> ()

let suites =
  [
    ( "stream",
      [
        Alcotest.test_case "eheap sorted drain" `Quick test_eheap_order;
        Alcotest.test_case "eheap FIFO ties" `Quick test_eheap_fifo_ties;
        Alcotest.test_case "eheap free-list recycling" `Quick
          test_eheap_freelist_recycles;
        QCheck_alcotest.to_alcotest prop_oracle_differential;
        Alcotest.test_case "oracle differential (fig1)" `Quick
          test_oracle_differential_fig1;
        Alcotest.test_case "delivers fig1" `Quick test_delivers_fig1;
        Alcotest.test_case "all disciplines deliver" `Quick
          test_disciplines_deliver;
        Alcotest.test_case "in-order is seed-independent" `Quick
          test_inorder_deterministic;
        Alcotest.test_case "dedup off allows duplicates" `Quick
          test_dedup_off_duplicates;
        Alcotest.test_case "dead overlay undelivered" `Quick
          test_undelivered_dead_overlay;
        Alcotest.test_case "metrics JSON jobs-invariant" `Quick
          test_metrics_json_jobs_invariant;
        Alcotest.test_case "BENCH_stream schema golden" `Quick
          test_bench_stream_schema_golden;
        QCheck_alcotest.to_alcotest prop_rate_convergence;
      ] );
  ]
