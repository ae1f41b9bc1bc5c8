(* Micro-benchmark for the verification engine's flowgraph core.

   Compares, on the same schemes, three ways of computing the broadcast
   throughput [min over v of maxflow (C0 -> v)]:

   - legacy     : Maxflow_legacy.min_broadcast_flow — the pre-CSR batch
                  Dinic (int list adjacency, adjacency copied per phase,
                  recursive blocking-flow DFS), kept as the frozen oracle;
   - csr        : Maxflow.min_broadcast_flow — the CSR arena (flat arc
                  arrays, blit-reset cursors, ring-buffer BFS, iterative
                  blocking flow);
   - structured : Maxflow.broadcast_throughput — the O(V + E) incoming-cut
                  fast path on acyclic schemes, batch CSR Dinic otherwise.

   It also measures the full verify-plus-metrics consumer path two ways:

   - split      : Verify.check + Metrics.degree_report (+ Metrics.depth on
                  acyclic schemes) on the bare graph — each call walks or
                  re-freezes the graph on its own;
   - artifact   : Scheme.create + Scheme.report + Metrics.scheme_report
                  (+ Metrics.scheme_depth) — one construction-time
                  validation, one shared CSR snapshot for every query.

   Each case asserts that the engines agree within 1e-6 relative error,
   prints a table, and appends its row to BENCH_verify.json (written in
   the current directory) so the performance trajectory is tracked across
   PRs. Run with `make bench-verify` or
   `dune exec -- bench/verify_bench.exe`. *)

(* Wall-clock and GC probes shared with the other bench executables
   (slow calls measured once, fast calls averaged — see
   bench/bench_util.mli). *)
let time = Bench_util.time

let mixed_instance ?(p_open = 0.7) ~seed n =
  let rng = Prng.Splitmix.create seed in
  Platform.Generator.generate
    { Platform.Generator.total = n; p_open; dist = Prng.Dist.unif100 }
    rng

let acyclic_scheme n =
  let inst = mixed_instance ~seed:(Int64.of_int (41 + n)) n in
  let t, word = Broadcast.Greedy.optimal_acyclic inst in
  let rate = t *. (1. -. 4e-9) in
  (inst, Broadcast.Low_degree.build inst ~rate word)

let cyclic_scheme n =
  let inst = mixed_instance ~p_open:1. ~seed:(Int64.of_int (97 + n)) n in
  (inst, Broadcast.Cyclic_open.build inst)

type row = {
  name : string;
  nodes : int;
  edges : int;
  acyclic : bool;
  legacy_s : float;
  csr_s : float;
  structured_s : float;
  split_s : float;
  artifact_s : float;
  (* GC profile of the structured fast path — the ROADMAP's
     "zero-allocation hot paths" target, so allocation regressions show
     up in BENCH_verify.json next to the latency columns. *)
  minor_words_per_call : float;
  major_collections : int;
  agree : bool;
}

let close a b = Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.max a b)

let case name (inst, scheme) =
  let g = Broadcast.Scheme.graph scheme in
  let rate = Broadcast.Scheme.rate scheme in
  let provenance = Broadcast.Scheme.provenance scheme in
  let acyclic = Flowgraph.Topo.is_acyclic g in
  let legacy_v, legacy_s =
    time (fun () -> Oracle.Maxflow_legacy.min_broadcast_flow g ~src:0)
  in
  let csr_v, csr_s =
    time (fun () -> Flowgraph.Maxflow.min_broadcast_flow g ~src:0)
  in
  let structured_v, structured_gc =
    Bench_util.time_gc (fun () -> Flowgraph.Maxflow.broadcast_throughput g ~src:0)
  in
  let structured_s = structured_gc.Bench_util.seconds in
  (* Consumer path, old style: every query re-reads the mutable graph. *)
  let split () =
    let r = Broadcast.Verify.check inst g in
    let d = Broadcast.Metrics.degree_report inst ~t:rate g in
    let depth = if acyclic then Broadcast.Metrics.depth g else 0 in
    (r.Broadcast.Verify.throughput, d.Broadcast.Metrics.max_excess, depth)
  in
  (* Consumer path, artifact style: one validated Scheme, one shared CSR
     snapshot. A fresh Scheme per call keeps the memoization honest — we
     time construction + first-use, not cache hits. *)
  let artifact () =
    let s = Broadcast.Scheme.create ~provenance inst g in
    let r = Broadcast.Scheme.report s in
    let d = Broadcast.Metrics.scheme_report s in
    let depth = if acyclic then Broadcast.Metrics.scheme_depth s else 0 in
    (r.Broadcast.Verify.throughput, d.Broadcast.Metrics.max_excess, depth)
  in
  let (split_t, split_exc, split_depth), split_s = time split in
  let (art_t, art_exc, art_depth), artifact_s = time artifact in
  {
    name;
    nodes = Flowgraph.Graph.node_count g;
    edges = Flowgraph.Graph.edge_count g;
    acyclic;
    legacy_s;
    csr_s;
    structured_s;
    split_s;
    artifact_s;
    minor_words_per_call = structured_gc.Bench_util.minor_words_per_call;
    major_collections = structured_gc.Bench_util.major_collections;
    agree =
      close legacy_v csr_v && close legacy_v structured_v
      && close split_t art_t && split_exc = art_exc && split_depth = art_depth;
  }

(* Verify.check_batch over a fleet of schemes — the driver-facing entry
   point (one structural pass + one throughput per scheme). *)
let batch_fleet_case schemes =
  let pairs =
    List.map (fun (inst, s) -> (inst, Broadcast.Scheme.graph s)) schemes
  in
  let _, t = time (fun () -> Broadcast.Verify.check_batch pairs) in
  let reports = Broadcast.Verify.check_batch pairs in
  let ok =
    List.for_all
      (fun r ->
        r.Broadcast.Verify.bandwidth_ok && r.Broadcast.Verify.firewall_ok)
      reports
  in
  (t, List.length pairs, ok)

let json_escape s = s (* names are plain ASCII identifiers *)

let emit_json rows (fleet_s, fleet_n, fleet_ok) path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"benchmark\": \"verify\",\n  \"unit\": \"seconds_per_call\",\n";
  p "  \"cases\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"name\": \"%s\", \"nodes\": %d, \"edges\": %d, \"acyclic\": \
         %b,\n\
        \     \"legacy_s\": %.6e, \"csr_s\": %.6e, \"structured_s\": %.6e,\n\
        \     \"split_s\": %.6e, \"artifact_s\": %.6e,\n\
        \     \"minor_words_per_call\": %.1f, \"major_collections\": %d,\n\
        \     \"speedup_csr\": %.2f, \"speedup_structured\": %.2f, \
         \"speedup_artifact\": %.2f, \"agree\": %b}%s\n"
        (json_escape r.name) r.nodes r.edges r.acyclic r.legacy_s r.csr_s
        r.structured_s r.split_s r.artifact_s r.minor_words_per_call
        r.major_collections (r.legacy_s /. r.csr_s)
        (r.legacy_s /. r.structured_s)
        (r.split_s /. r.artifact_s)
        r.agree
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p
    "  \"check_batch\": {\"schemes\": %d, \"total_s\": %.6e, \"all_valid\": \
     %b}\n"
    fleet_n fleet_s fleet_ok;
  p "}\n";
  close_out oc

let () =
  (* Per-n scheme construction is independent (each case seeds its own
     PRNG stream), so it runs on the domain pool; the timed measurements
     below stay strictly sequential to keep timings undisturbed. *)
  let specs =
    [|
      ("acyclic-n200", `Acyclic, 200);
      ("acyclic-n500", `Acyclic, 500);
      ("acyclic-n1000", `Acyclic, 1000);
      ("acyclic-n5000", `Acyclic, 5000);
      ("acyclic-n10000", `Acyclic, 10000);
      ("cyclic-n200", `Cyclic, 200);
      ("cyclic-n400", `Cyclic, 400);
      ("cyclic-n1000", `Cyclic, 1000);
      ("cyclic-n5000", `Cyclic, 5000);
      ("cyclic-n10000", `Cyclic, 10000);
    |]
  in
  let cases =
    Parallel.Pool.map_array specs (fun (name, kind, n) ->
        ( name,
          match kind with
          | `Acyclic -> acyclic_scheme n
          | `Cyclic -> cyclic_scheme n ))
    |> Array.to_list
  in
  let rows = List.map (fun (name, s) -> case name s) cases in
  let fleet =
    batch_fleet_case
      (Array.to_list
         (Parallel.Pool.map_range 20 (fun i -> acyclic_scheme (150 + (5 * i)))))
  in
  Printf.printf "%-15s %6s %6s %8s %12s %12s %12s %12s %12s %10s %5s %8s %8s %6s\n"
    "case" "nodes" "edges" "acyclic" "legacy/s" "csr/s" "struct/s" "split/s"
    "artif/s" "minw/call" "majgc" "x-csr" "x-struct" "agree";
  List.iter
    (fun r ->
      Printf.printf
        "%-15s %6d %6d %8b %12.3e %12.3e %12.3e %12.3e %12.3e %10.1f %5d \
         %8.1f %8.1f %6b\n"
        r.name r.nodes r.edges r.acyclic r.legacy_s r.csr_s r.structured_s
        r.split_s r.artifact_s r.minor_words_per_call r.major_collections
        (r.legacy_s /. r.csr_s)
        (r.legacy_s /. r.structured_s)
        r.agree)
    rows;
  let fleet_s, fleet_n, fleet_ok = fleet in
  Printf.printf "check_batch: %d schemes in %.3e s (%.3e s/scheme), valid=%b\n"
    fleet_n fleet_s
    (fleet_s /. float_of_int fleet_n)
    fleet_ok;
  emit_json rows fleet "BENCH_verify.json";
  let bad = List.filter (fun r -> not r.agree) rows in
  if bad <> [] then begin
    List.iter (fun r -> Printf.eprintf "DISAGREEMENT in %s\n" r.name) bad;
    exit 1
  end;
  (* Acceptance tripwires for the CSR core: the flat-array engine must
     beat the legacy list engine by at least 2x on cyclic schemes with
     n >= 400, and the structure-aware verifier must beat it by at least
     3x on acyclic schemes with n >= 200. *)
  let gate_csr =
    List.filter (fun r -> (not r.acyclic) && r.nodes >= 400) rows
    |> List.for_all (fun r -> r.legacy_s /. r.csr_s >= 2.)
  in
  if not gate_csr then begin
    Printf.eprintf "speedup gate (csr >= 2x legacy on cyclic n >= 400) FAILED\n";
    exit 1
  end;
  let gate_structured =
    List.filter (fun r -> r.acyclic && r.nodes >= 200) rows
    |> List.for_all (fun r -> r.legacy_s /. r.structured_s >= 3.)
  in
  if not gate_structured then begin
    Printf.eprintf
      "speedup gate (structured >= 3x legacy on acyclic n >= 200) FAILED\n";
    exit 1
  end;
  (* Artifact tripwire: the Scheme path (construction-time validation plus
     one shared snapshot) must not lose to the split path (which re-walks
     or re-freezes the graph per query). 10% slack absorbs timer noise on
     the mid-size cases. *)
  let gate_artifact =
    List.filter (fun r -> r.nodes >= 1000) rows
    |> List.for_all (fun r -> r.artifact_s <= 1.10 *. r.split_s)
  in
  if not gate_artifact then begin
    Printf.eprintf
      "artifact gate (scheme path <= 1.1x split path on n >= 1000) FAILED\n";
    exit 1
  end;
  print_endline "verify_bench: ok (BENCH_verify.json written)"
