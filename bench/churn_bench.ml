(* Wall-clock benchmark for the fault-injection engine (Churn.Engine).

   For each population size, builds a platform and an adversarial trace
   from fixed seeds, replays the trace once with auditing off and once at
   Audit.Check level, asserts both runs end in the identical state (the
   auditor is an observer, not an actor), and appends the timings to
   BENCH_churn.json.

   Three gates:

   - auditing must not cost more than 3x the unaudited replay — the
     auditor's per-event work is O(V + E) array scans against a repair
     that already measures its own rate, so a larger multiple means an
     accidental slow path (e.g. a max-flow call) leaked into Check level;
   - warm-start flow maintenance (Maxflow.Incremental) must beat a
     from-scratch min-over-sinks solve by at least 5x per single-node
     event once n >= 10000 — below that the incremental machinery is not
     paying for its bookkeeping;
   - the delta-scoped Certificate audit (warm engine + delta-scoped
     re-checks, the tracker's serving fast path) must beat the Strict
     per-event audit cost by at least 10x once n >= 10000 — the
     sublinear-per-event claim of the certificate design, timed inside
     one replay of the trace: the engine's deferred-audit flush plus the
     warm-flow moves each applied event makes.

   Run with `make bench-churn` or `dune exec -- bench/churn_bench.exe`. *)

module MF = Flowgraph.Maxflow
module MFI = Flowgraph.Maxflow.Incremental

type row = {
  nodes : int;
  events : int;
  unaudited_s : float;
  audited_s : float;
  events_per_s : float;
  overhead : float;
  identical : bool;
  incremental_s : float;  (** warm-start solve per single-node event *)
  full_recompute_s : float;  (** from-scratch solve on the same snapshots *)
  speedup : float;  (** [full_recompute_s /. incremental_s] *)
  agree : bool;  (** warm and from-scratch values matched on every event *)
  delta_audit_s : float;
      (** per-event cost of the certificate fast path on top of the
          unaudited replay (warm engine + delta-scoped audit) *)
  strict_audit_s : float;  (** per-event cost of the Strict audit *)
  delta_audit_speedup : float;  (** [strict_audit_s /. delta_audit_s] *)
  minor_words_per_event : float;
      (** minor-heap words the unaudited replay allocates per event *)
  major_collections : int;
      (** major GC cycles over the measured unaudited replay *)
}

let setup ~nodes ~events =
  let rng = Prng.Splitmix.create (Int64.of_int (9200 + nodes)) in
  let inst =
    Platform.Generator.generate
      { Platform.Generator.total = nodes; p_open = 0.7; dist = Prng.Dist.unif100 }
      rng
  in
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  let overlay = Broadcast.Overlay.build ~rate:(t *. 0.9) inst in
  let trace = Churn.Trace.gen ~events rng in
  (overlay, trace)

let fingerprint (r : Churn.Engine.result) =
  let s = r.Churn.Engine.summary in
  Printf.sprintf "%d/%d/%d/%d/%.12g/%.12g" s.Churn.Engine.applied
    s.Churn.Engine.rebuilds s.Churn.Engine.total_churn s.Churn.Engine.final_size
    s.Churn.Engine.final_rate s.Churn.Engine.min_ratio

(* The incremental micro-benchmark: a run of single-node degrade events
   (each a bandwidth delta on one node, no renumbering churn beyond the
   repair's own), solved warm against solved from scratch on identical
   snapshots. Repairs happen outside the timed sections — both engines
   time pure flow work. The initial warm solve (create) is also outside:
   steady-state maintenance is what the column measures. *)
let single_node_deltas = 8

let microbench ~nodes =
  let overlay, _ = setup ~nodes ~events:0 in
  let size = Platform.Instance.size (Broadcast.Overlay.instance overlay) in
  let steps = ref [] in
  let o = ref overlay in
  for i = 1 to single_node_deltas do
    let node = 1 + (i * 7919 mod (size - 1)) in
    let b = (Broadcast.Overlay.instance !o).Platform.Instance.bandwidth.(node) in
    let factor = if i mod 2 = 0 then 0.6 else 0.85 in
    let o', (stats : Broadcast.Repair.stats) =
      Broadcast.Repair.degrade !o ~node ~bandwidth:(b *. factor)
    in
    o := o';
    steps :=
      (stats.Broadcast.Repair.node_map,
       Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme o'))
      :: !steps
  done;
  let steps = List.rev !steps in
  let inc =
    MFI.create (Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme overlay)) ~src:0
  in
  let warm = ref [] in
  let incremental_s, () =
    Bench_util.time_once (fun () ->
        List.iter
          (fun (map, snap) ->
            MFI.apply inc ~map snap;
            warm := MFI.value inc :: !warm)
          steps)
  in
  let scratch = ref [] in
  let full_recompute_s, () =
    Bench_util.time_once (fun () ->
        List.iter
          (fun (_, snap) ->
            scratch := MF.min_broadcast_flow_csr snap ~src:0 :: !scratch)
          steps)
  in
  let agree =
    List.for_all2
      (fun w s -> Float.abs (w -. s) <= Broadcast.Verify.flow_slack s)
      !warm !scratch
  in
  let per x = x /. float_of_int single_node_deltas in
  (per incremental_s, per full_recompute_s, agree)

(* Per-event Strict audit cost, measured through the real engine on a
   short trace prefix — at n = 10^4 a Strict audit is a from-scratch
   max-flow per event (seconds), so timing it on the full trace would
   dominate the whole benchmark for no extra signal. *)
let strict_probe_events = 12

let strict_audit_cost ~nodes =
  let overlay, trace = setup ~nodes ~events:strict_probe_events in
  let run audit =
    Churn.Engine.run ~policy:Churn.Policy.Always_patch ~audit overlay trace
  in
  let off_s, _ = Bench_util.time_once (fun () -> run Churn.Audit.Off) in
  let strict_s, _ = Bench_util.time_once (fun () -> run Churn.Audit.Strict) in
  Float.max ((strict_s -. off_s) /. float_of_int strict_probe_events) 1e-9

let bench ~nodes ~events =
  let overlay, trace = setup ~nodes ~events in
  let run ?engine audit =
    Churn.Engine.run ~policy:Churn.Policy.Always_patch ~audit ?engine overlay
      trace
  in
  let r_off, gc = Bench_util.time_gc (fun () -> run Churn.Audit.Off) in
  let unaudited_s = gc.Bench_util.seconds in
  let audited_s, r_chk = Bench_util.time_once (fun () -> run Churn.Audit.Check) in
  (* The serving fast path: warm incremental engine plus the delta-scoped
     Certificate audit (no backstop, so the timing is the pure fast path).
     Each part is timed directly in one replay: the audit by stepping
     the trace with the audit deferred and flushing it under the clock,
     the warm flow by moving a twin of the engine's warm state with the
     same [apply]/[rebase] calls on the same snapshots and node maps.
     A difference of two whole-replay walls would drown in run-to-run
     noise: the repair costs only a few times the fast path. The replay
     must stay byte-identical — the audit level and the engine are
     observers, never actors. *)
  let cert_s, r_cert =
    let st =
      Churn.Engine.start ~policy:Churn.Policy.Always_patch
        ~audit:(Churn.Audit.Certificate { strict_every = 0 })
        ~engine:Churn.Audit.Incremental overlay
    in
    let twin =
      MFI.create (Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme overlay)) ~src:0
    in
    let spent = ref 0. in
    let clock f = spent := !spent +. fst (Bench_util.time_once f) in
    Array.iter
      (fun e ->
        let r = Churn.Engine.step ~defer_audit:true st e in
        (match (r.Churn.Engine.action, Churn.Engine.last_repair st) with
        | Churn.Engine.Skipped, _ | _, None -> ()
        | action, Some stats ->
          let snap =
            Broadcast.Scheme.snapshot
              (Broadcast.Overlay.scheme (Churn.Engine.live st))
          in
          clock (fun () ->
              if action = Churn.Engine.Rebuilt then MFI.rebase twin snap
              else MFI.apply twin ~map:stats.Broadcast.Repair.node_map snap));
        clock (fun () -> Churn.Engine.flush_audit st))
      trace.Churn.Trace.events;
    ( !spent,
      {
        Churn.Engine.overlay = Churn.Engine.live st;
        timeline = [];
        summary = Churn.Engine.progress st;
      } )
  in
  let strict_audit_s = strict_audit_cost ~nodes in
  let incremental_s, full_recompute_s, agree = microbench ~nodes in
  let delta_audit_s = cert_s /. float_of_int events in
  {
    nodes;
    events;
    unaudited_s;
    audited_s;
    events_per_s = float_of_int events /. unaudited_s;
    overhead = audited_s /. unaudited_s;
    identical =
      String.equal (fingerprint r_off) (fingerprint r_chk)
      && String.equal (fingerprint r_off) (fingerprint r_cert);
    incremental_s;
    full_recompute_s;
    speedup = full_recompute_s /. incremental_s;
    agree;
    delta_audit_s;
    strict_audit_s;
    delta_audit_speedup = strict_audit_s /. delta_audit_s;
    minor_words_per_event =
      gc.Bench_util.minor_words_per_call /. float_of_int events;
    major_collections = gc.Bench_util.major_collections;
  }

let emit_json rows path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"benchmark\": \"churn\",\n  \"unit\": \"seconds_per_trace\",\n";
  p "  \"gate_overhead_max\": 3.0,\n";
  p "  \"gate_incremental_speedup_min\": 5.0,\n";
  p "  \"gate_incremental_speedup_nodes\": 10000,\n";
  p "  \"gate_delta_audit_speedup_min\": 10.0,\n";
  p "  \"gate_delta_audit_speedup_nodes\": 10000,\n";
  p "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"nodes\": %d, \"events\": %d, \"unaudited_s\": %.6e, \
         \"audited_s\": %.6e,\n\
        \     \"events_per_s\": %.1f, \"overhead\": %.2f, \"identical\": %b,\n\
        \     \"incremental_s\": %.6e, \"full_recompute_s\": %.6e, \
         \"speedup\": %.1f, \"agree\": %b,\n\
        \     \"delta_audit_s\": %.6e, \"strict_audit_s\": %.6e, \
         \"delta_audit_speedup\": %.1f,\n\
        \     \"minor_words_per_event\": %.1f, \"major_collections\": %d}%s\n"
        r.nodes r.events r.unaudited_s r.audited_s r.events_per_s r.overhead
        r.identical r.incremental_s r.full_recompute_s r.speedup r.agree
        r.delta_audit_s r.strict_audit_s r.delta_audit_speedup
        r.minor_words_per_event r.major_collections
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let () =
  let rows =
    [
      bench ~nodes:200 ~events:300;
      bench ~nodes:1000 ~events:150;
      bench ~nodes:5000 ~events:50;
      bench ~nodes:10000 ~events:30;
    ]
  in
  Printf.printf
    "%-7s %-7s %12s %12s %10s %9s %10s %12s %12s %8s %12s %12s %9s %12s %6s\n"
    "nodes" "events" "unaudited/s" "audited/s" "events/s" "overhead"
    "identical" "incr/ev" "full/ev" "speedup" "delta-aud/ev" "strict-aud/ev"
    "aud-spdup" "minorw/ev" "majgc";
  List.iter
    (fun r ->
      Printf.printf
        "%-7d %-7d %12.3f %12.3f %10.1f %9.2f %10b %12.6f %12.6f %8.1f \
         %12.6f %12.6f %9.1f %12.1f %6d\n"
        r.nodes r.events r.unaudited_s r.audited_s r.events_per_s r.overhead
        r.identical r.incremental_s r.full_recompute_s r.speedup
        r.delta_audit_s r.strict_audit_s r.delta_audit_speedup
        r.minor_words_per_event r.major_collections)
    rows;
  emit_json rows "BENCH_churn.json";
  print_endline "wrote BENCH_churn.json";
  let divergent = List.filter (fun r -> not r.identical) rows in
  if divergent <> [] then begin
    List.iter
      (fun r -> Printf.printf "FAIL: audited run diverged at n=%d\n" r.nodes)
      divergent;
    exit 1
  end;
  let disagree = List.filter (fun r -> not r.agree) rows in
  if disagree <> [] then begin
    List.iter
      (fun r ->
        Printf.printf "FAIL: warm value diverged from from-scratch at n=%d\n"
          r.nodes)
      disagree;
    exit 1
  end;
  let slow = List.filter (fun r -> r.overhead > 3.0) rows in
  if slow <> [] then begin
    List.iter
      (fun r ->
        Printf.printf "FAIL: audit overhead %.2fx > 3x at n=%d\n" r.overhead
          r.nodes)
      slow;
    exit 1
  end;
  let lagging =
    List.filter (fun r -> r.nodes >= 10000 && r.speedup < 5.0) rows
  in
  if lagging <> [] then begin
    List.iter
      (fun r ->
        Printf.printf
          "FAIL: incremental speedup %.1fx < 5x for single-node events at n=%d\n"
          r.speedup r.nodes)
      lagging;
    exit 1
  end;
  let audit_lagging =
    List.filter (fun r -> r.nodes >= 10000 && r.delta_audit_speedup < 10.0) rows
  in
  if audit_lagging <> [] then begin
    List.iter
      (fun r ->
        Printf.printf
          "FAIL: certificate audit speedup %.1fx < 10x over strict at n=%d\n"
          r.delta_audit_speedup r.nodes)
      audit_lagging;
    exit 1
  end
