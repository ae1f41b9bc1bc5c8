(* Tests for the fault-injection layer (lib/churn): trace generation and
   persistence, the event engine, self-healing policies, the invariant
   auditor, and the golden bytes of the bmp-trace format. *)

open Platform

let overlay_with_headroom inst headroom =
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let small_overlay ?(n = 25) ?(headroom = 0.9) seed =
  let rng = Prng.Splitmix.create seed in
  let inst =
    Platform.Generator.generate
      { Platform.Generator.total = n; p_open = 0.7; dist = Prng.Dist.unif100 }
      rng
  in
  (overlay_with_headroom inst headroom, rng)

(* Trace generation *)

let test_gen_deterministic () =
  let t1 = Churn.Trace.gen ~events:80 (Prng.Splitmix.create 5L) in
  let t2 = Churn.Trace.gen ~events:80 (Prng.Splitmix.create 5L) in
  Alcotest.(check string) "same seed, same bytes" (Churn.Trace.to_json t1)
    (Churn.Trace.to_json t2);
  let t3 = Churn.Trace.gen ~events:80 (Prng.Splitmix.create 6L) in
  Alcotest.(check bool) "different seed, different trace" false
    (Churn.Trace.to_json t1 = Churn.Trace.to_json t3)

let test_gen_mix_covers_all_kinds () =
  let t = Churn.Trace.gen ~events:400 (Prng.Splitmix.create 11L) in
  let labels =
    Array.fold_left
      (fun acc e -> Churn.Trace.label e :: acc)
      [] t.Churn.Trace.events
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string))
    "all six kinds appear in 400 events"
    [ "degrade"; "fail-batch"; "flash-crowd"; "join"; "leave"; "restore" ]
    labels

let test_gen_validation () =
  (try
     ignore (Churn.Trace.gen ~events:(-1) (Prng.Splitmix.create 1L));
     Alcotest.fail "negative event count accepted"
   with Invalid_argument _ -> ());
  let bad = { Churn.Trace.default_mix with Churn.Trace.max_batch = 0 } in
  try
    ignore (Churn.Trace.gen ~mix:bad ~events:1 (Prng.Splitmix.create 1L));
    Alcotest.fail "max_batch = 0 accepted"
  with Invalid_argument _ -> ()

(* Persistence *)

let test_json_roundtrip () =
  let t = Churn.Trace.gen ~events:120 (Prng.Splitmix.create 77L) in
  let js = Churn.Trace.to_json t in
  match Churn.Trace.of_json js with
  | Error e -> Alcotest.failf "round-trip failed: %s" e
  | Ok t' ->
    Alcotest.(check int) "length kept" (Churn.Trace.length t)
      (Churn.Trace.length t');
    Alcotest.(check string) "canonical bytes" js (Churn.Trace.to_json t')

let expect_error what text =
  match Churn.Trace.of_json text with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error _ -> ()

let test_json_strict () =
  expect_error "unknown top-level field"
    {|{"format": "bmp-trace", "version": 1, "events": [], "extra": 0}|};
  expect_error "wrong format tag"
    {|{"format": "bmp-scheme", "version": 1, "events": []}|};
  expect_error "unsupported version"
    {|{"format": "bmp-trace", "version": 2, "events": []}|};
  expect_error "unknown event type"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "reboot"}]}|};
  expect_error "unknown event field"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "leave", "pick": 1, "x": 2}]}|};
  expect_error "negative pick"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "leave", "pick": -1}]}|};
  expect_error "factor above 1"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "degrade", "pick": 0, "factor": 1.5}]}|};
  expect_error "factor zero"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "restore", "pick": 0, "factor": 0}]}|};
  expect_error "negative bandwidth"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "join", "bandwidth": -3, "guarded": false}]}|};
  expect_error "empty batch"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "fail-batch", "picks": []}]}|};
  expect_error "empty flash crowd"
    {|{"format": "bmp-trace", "version": 1, "events": [{"type": "flash-crowd", "arrivals": []}]}|};
  match
    Churn.Trace.of_json
      {|{"format": "bmp-trace", "version": 1, "events": [{"type": "leave", "pick": 3}]}|}
  with
  | Ok t -> Alcotest.(check int) "minimal trace loads" 1 (Churn.Trace.length t)
  | Error e -> Alcotest.failf "minimal trace rejected: %s" e

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_json_golden () =
  (* The trace format is pinned byte-for-byte: any encoding change must
     bump Trace.format_version and regenerate the golden file with
     `dune exec test/gen_golden.exe -- trace`. *)
  let golden = read_file "golden/churn_trace.json" in
  let trace = Churn.Trace.gen ~events:12 (Prng.Splitmix.create 2024L) in
  Alcotest.(check string) "golden bytes" golden (Churn.Trace.to_json trace ^ "\n");
  match Churn.Trace.of_json golden with
  | Ok t -> Alcotest.(check string) "golden re-parses canonically" golden
              (Churn.Trace.to_json t ^ "\n")
  | Error e -> Alcotest.failf "golden trace rejected: %s" e

(* Engine *)

let test_engine_deterministic () =
  let run () =
    let o, rng = small_overlay 31L in
    let trace = Churn.Trace.gen ~events:60 rng in
    let r =
      Churn.Engine.run ~policy:Churn.Policy.adaptive_default
        ~audit:Churn.Audit.Check ~rebuild_headroom:0.8 o trace
    in
    let s = r.Churn.Engine.summary in
    Printf.sprintf "%d/%d/%d/%.12g/%.12g" s.Churn.Engine.rebuilds
      s.Churn.Engine.total_churn s.Churn.Engine.final_size
      s.Churn.Engine.final_rate s.Churn.Engine.min_ratio
  in
  Alcotest.(check string) "replay is reproducible" (run ()) (run ())

let test_engine_summary_coherent () =
  let o, rng = small_overlay 17L in
  let trace = Churn.Trace.gen ~events:50 rng in
  let r = Churn.Engine.run ~audit:Churn.Audit.Strict o trace in
  let s = r.Churn.Engine.summary in
  Alcotest.(check int) "applied + skipped = events" s.Churn.Engine.events
    (s.Churn.Engine.applied + s.Churn.Engine.skipped);
  Alcotest.(check int) "timeline covers the trace" s.Churn.Engine.events
    (List.length r.Churn.Engine.timeline);
  Alcotest.(check bool) "min <= mean" true
    (s.Churn.Engine.min_ratio <= s.Churn.Engine.mean_ratio +. 1e-9);
  Alcotest.(check bool) "final overlay well-formed" true
    (Broadcast.Overlay.well_formed r.Churn.Engine.overlay);
  let last = List.nth r.Churn.Engine.timeline (s.Churn.Engine.events - 1) in
  Alcotest.(check int) "cumulative churn matches summary"
    s.Churn.Engine.total_churn last.Churn.Engine.cumulative_churn

let test_policy_extremes () =
  let trace_of rng = Churn.Trace.gen ~events:40 rng in
  let o, rng = small_overlay 23L in
  let trace = trace_of rng in
  let patch =
    (Churn.Engine.run ~policy:Churn.Policy.Always_patch ~audit:Churn.Audit.Check
       o trace)
      .Churn.Engine.summary
  in
  let rebuild =
    (Churn.Engine.run ~policy:Churn.Policy.Always_rebuild
       ~audit:Churn.Audit.Check ~rebuild_headroom:0.8 o trace)
      .Churn.Engine.summary
  in
  let adaptive =
    (Churn.Engine.run ~policy:Churn.Policy.adaptive_default
       ~audit:Churn.Audit.Check ~rebuild_headroom:0.8 o trace)
      .Churn.Engine.summary
  in
  Alcotest.(check int) "always-patch never rebuilds" 0 patch.Churn.Engine.rebuilds;
  Alcotest.(check int) "always-rebuild rebuilds every applied event"
    rebuild.Churn.Engine.applied rebuild.Churn.Engine.rebuilds;
  Alcotest.(check bool) "adaptive rebuilds less than always-rebuild" true
    (adaptive.Churn.Engine.rebuilds < rebuild.Churn.Engine.rebuilds);
  Alcotest.(check bool) "adaptive holds more rate than always-patch" true
    (adaptive.Churn.Engine.min_ratio >= patch.Churn.Engine.min_ratio);
  Alcotest.(check bool) "adaptive churns less than always-rebuild" true
    (adaptive.Churn.Engine.total_churn < rebuild.Churn.Engine.total_churn)

let test_audit_catches_corruption () =
  (* Hand the engine a corrupted overlay: an order that lists a backward
     edge. The auditor must name the offending event. *)
  let o, _ = small_overlay 41L in
  let order = Array.copy (Broadcast.Overlay.order o) in
  let tmp = order.(1) in
  order.(1) <- order.(Array.length order - 1);
  order.(Array.length order - 1) <- tmp;
  let corrupted = Broadcast.Overlay.of_scheme (Broadcast.Overlay.scheme o) ~order in
  match Churn.Audit.check Churn.Audit.Check ~index:7 corrupted with
  | () -> Alcotest.fail "auditor accepted a backward order"
  | exception Churn.Audit.Violation { index; what = _ } ->
    Alcotest.(check int) "violation carries the event index" 7 index

let test_degrade_restore_cancel () =
  let o, _ = small_overlay 51L in
  let inst = Broadcast.Overlay.instance o in
  let node = Instance.size inst - 1 in
  let b = inst.Instance.bandwidth.(node) in
  let o1, s1 = Broadcast.Repair.degrade o ~node ~bandwidth:(b *. 0.4) in
  Alcotest.(check bool) "degrade is a repair" true
    (s1.Broadcast.Repair.patch_edges >= 0);
  (* The degraded node may sit elsewhere after the class re-sort; find a
     node carrying the degraded bandwidth and restore it. *)
  let inst1 = Broadcast.Overlay.instance o1 in
  let node1 =
    let target = b *. 0.4 in
    let found = ref (-1) in
    Array.iteri
      (fun v bv ->
        if !found < 0 && v > 0 && Float.abs (bv -. target) <= 1e-9 *. Float.max 1. target
        then found := v)
      inst1.Instance.bandwidth;
    !found
  in
  Alcotest.(check bool) "degraded node present" true (node1 >= 0);
  let o2, s2 = Broadcast.Repair.restore o1 ~node:node1 ~bandwidth:b in
  Alcotest.(check bool) "well formed after restore" true
    (Broadcast.Overlay.well_formed o2);
  Alcotest.(check bool) "restore recovers the rate" true
    (s2.Broadcast.Repair.rate_after >= s1.Broadcast.Repair.rate_after -. 1e-9)

let test_leave_batch_matches_engine () =
  let o, _ = small_overlay 61L in
  let size = Instance.size (Broadcast.Overlay.instance o) in
  let nodes = [ 1; size / 2; size - 1 ] |> List.sort_uniq compare in
  let o', stats = Broadcast.Repair.leave_batch o ~nodes in
  Alcotest.(check int) "all casualties removed"
    (size - List.length nodes)
    (Instance.size (Broadcast.Overlay.instance o'));
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "rate measured" true
    (stats.Broadcast.Repair.rate_after >= 0.)

(* Satellite: a join on a saturated overlay (zero headroom) must admit the
   newcomer at rate 0 and report it as starved — never raise. *)
let test_join_saturated_regression () =
  let o = overlay_with_headroom Instance.fig1 1.0 in
  let o', stats = Broadcast.Repair.join o ~bandwidth:3. ~cls:Instance.Open in
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "newcomer reported starved" true
    (stats.Broadcast.Repair.starved <> []);
  Alcotest.(check bool) "rate drops below the target (newcomer underfed)" true
    (stats.Broadcast.Repair.rate_after < Broadcast.Overlay.rate o -. 1e-6);
  (* The engine rides through the same event, audited. *)
  let trace =
    { Churn.Trace.events = [| Churn.Trace.Join { bandwidth = 3.; guarded = false } |] }
  in
  let r = Churn.Engine.run ~audit:Churn.Audit.Strict o trace in
  Alcotest.(check int) "event applied, not skipped" 1
    r.Churn.Engine.summary.Churn.Engine.applied

(* Satellite regression: a join right after a batch failure drove the
   population to the engine's floor must see the post-failure topology,
   never a stale one. The repair path itself cannot go stale — every
   repair materializes a fresh Scheme whose snapshot is frozen at
   construction — so the one hazard is aliasing: [Scheme.graph] used to
   hand out the memoized mutable view, and a caller scribbling on it
   would silently diverge from the frozen snapshot that [join]'s
   capacity scan and the auditor both read. [Scheme.graph] now returns a
   copy; this pins both halves. *)
let test_join_after_floor_batch_not_stale () =
  let o, _ = small_overlay ~n:8 73L in
  let size = Instance.size (Broadcast.Overlay.instance o) in
  (* Fail everything down to the floor: source plus two survivors. *)
  let nodes = List.init (size - 3) (fun i -> i + 1) in
  let o1, _ = Broadcast.Repair.leave_batch o ~nodes in
  Alcotest.(check int) "at the floor" 3
    (Broadcast.Scheme.size (Broadcast.Overlay.scheme o1));
  (* Scribble on the graph view of the floored overlay before joining:
     with an aliased view this would corrupt the capacity scan below. *)
  let view = Broadcast.Scheme.graph (Broadcast.Overlay.scheme o1) in
  Flowgraph.Graph.set_edge view ~src:0 ~dst:1 0.;
  Flowgraph.Graph.set_edge view ~src:0 ~dst:2 0.;
  let snap = Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme o1) in
  Alcotest.(check bool) "snapshot untouched by view mutation" true
    (Flowgraph.Csr.out_weight snap 0 > 0.);
  let o2, stats = Broadcast.Repair.join o1 ~bandwidth:5. ~cls:Instance.Open in
  Alcotest.(check bool) "well formed after floor join" true
    (Broadcast.Overlay.well_formed o2);
  Alcotest.(check int) "population grew off the floor" 4
    (Broadcast.Scheme.size (Broadcast.Overlay.scheme o2));
  (* The join's reported rate must agree with an independent re-check of
     the post-join artifact — the two diverge if any cached state from
     before the batch failure leaked into the join. *)
  let report = Broadcast.Scheme.report (Broadcast.Overlay.scheme o2) in
  Alcotest.(check bool) "reported rate matches fresh verification" true
    (Float.abs
       (stats.Broadcast.Repair.rate_after
       -. report.Broadcast.Verify.throughput)
    <= Broadcast.Verify.flow_slack report.Broadcast.Verify.throughput);
  (* The engine rides the same cliff audited, with the warm flow state
     crossing the floor event by event. *)
  let events =
    [|
      Churn.Trace.Fail_batch { picks = List.init (size - 3) (fun i -> i) };
      Churn.Trace.Join { bandwidth = 5.; guarded = false };
    |]
  in
  let r =
    Churn.Engine.run ~audit:Churn.Audit.Strict ~engine:Churn.Audit.Incremental
      o { Churn.Trace.events }
  in
  Alcotest.(check int) "both events applied" 2
    r.Churn.Engine.summary.Churn.Engine.applied

(* Population-floor semantics, pinned as regressions. A trace that
   would drain the platform completely must stall at the floor — the
   source plus two receivers — with every surplus leave recorded as
   [Skipped] and the strict auditor green throughout. *)
let test_drain_trace_stalls_at_floor () =
  let o, _ = small_overlay ~n:8 83L in
  let size = Broadcast.Scheme.size (Broadcast.Overlay.scheme o) in
  let events =
    Array.init (2 * size) (fun i -> Churn.Trace.Leave { pick = 3 + (5 * i) })
  in
  let r =
    Churn.Engine.run ~audit:Churn.Audit.Strict ~engine:Churn.Audit.Incremental o
      { Churn.Trace.events }
  in
  Alcotest.(check int) "population stalls at the floor" 3
    (Broadcast.Scheme.size (Broadcast.Overlay.scheme r.Churn.Engine.overlay));
  Alcotest.(check int) "exactly size - 3 leaves applied" (size - 3)
    r.Churn.Engine.summary.Churn.Engine.applied;
  Alcotest.(check int) "the surplus is skipped, not dropped"
    ((2 * size) - (size - 3))
    r.Churn.Engine.summary.Churn.Engine.skipped;
  List.iter
    (fun (rec_ : Churn.Engine.record) ->
      if rec_.Churn.Engine.size < 3 then
        Alcotest.failf "event %d dipped below the floor" rec_.Churn.Engine.index;
      if rec_.Churn.Engine.index >= size - 3 then
        Alcotest.(check bool) "floored leave is skipped" true
          (rec_.Churn.Engine.action = Churn.Engine.Skipped))
    r.Churn.Engine.timeline;
  Alcotest.(check bool) "well formed at the floor" true
    (Broadcast.Overlay.well_formed r.Churn.Engine.overlay)

(* A correlated failure whose casualty list straddles the floor is
   trimmed, not refused: the engine applies exactly the picks that keep
   three survivors and drops the rest of the batch on the ground. *)
let test_fail_batch_straddles_floor () =
  let o, _ = small_overlay ~n:8 97L in
  let size = Broadcast.Scheme.size (Broadcast.Overlay.scheme o) in
  (* Twice as many picks as the platform can afford to lose. *)
  let events =
    [| Churn.Trace.Fail_batch { picks = List.init (2 * size) (fun i -> i) } |]
  in
  let r =
    Churn.Engine.run ~audit:Churn.Audit.Strict ~engine:Churn.Audit.Incremental o
      { Churn.Trace.events }
  in
  Alcotest.(check int) "batch trimmed to the floor" 3
    (Broadcast.Scheme.size (Broadcast.Overlay.scheme r.Churn.Engine.overlay));
  Alcotest.(check int) "the trimmed batch still applies" 1
    r.Churn.Engine.summary.Churn.Engine.applied;
  Alcotest.(check bool) "well formed after the straddling batch" true
    (Broadcast.Overlay.well_formed r.Churn.Engine.overlay);
  (* At the floor a further batch has no casualty budget at all, so the
     whole event is skipped rather than partially applied. *)
  let r2 =
    Churn.Engine.run ~audit:Churn.Audit.Strict r.Churn.Engine.overlay
      { Churn.Trace.events = [| Churn.Trace.Fail_batch { picks = [ 1; 2; 3 ] } |] }
  in
  Alcotest.(check int) "batch at the floor is skipped" 1
    r2.Churn.Engine.summary.Churn.Engine.skipped;
  Alcotest.(check int) "population unchanged at the floor" 3
    (Broadcast.Scheme.size (Broadcast.Overlay.scheme r2.Churn.Engine.overlay))

(* Satellite property: random interleaved event sequences keep every
   invariant at every step — the strict auditor IS the assertion. *)
let prop_engine_invariants =
  QCheck.Test.make ~name:"100-event traces sustain all invariants (strict audit)"
    ~count:10
    (QCheck.pair QCheck.(int_range 1 1_000_000) QCheck.bool)
    (fun (seed, adaptive) ->
      let o, rng = small_overlay ~n:15 (Int64.of_int seed) in
      let trace = Churn.Trace.gen ~events:100 rng in
      let policy =
        if adaptive then Churn.Policy.adaptive_default else Churn.Policy.Always_patch
      in
      let r =
        Churn.Engine.run ~policy ~audit:Churn.Audit.Strict ~rebuild_headroom:0.8
          o trace
      in
      List.for_all
        (fun (rec_ : Churn.Engine.record) ->
          rec_.Churn.Engine.ratio <= 1. +. 1e-6
          && rec_.Churn.Engine.rate >= 0.
          && rec_.Churn.Engine.size >= 3)
        r.Churn.Engine.timeline
      && Broadcast.Overlay.well_formed r.Churn.Engine.overlay)

(* Tentpole differential: the certificate-trusting audit must be
   indistinguishable from Strict — same verdict, same timeline, same
   summary — on random platform/trace pairs, across both engines and
   backstop cadences. Shrinking (helpers.ml) minimizes any divergence to
   the few events that matter. *)
let prop_certificate_matches_strict =
  QCheck.Test.make
    ~name:"certificate audit == strict: verdict, timeline and summary"
    ~count:300
    (QCheck.pair
       (Helpers.instance_arb ~max_open:8 ~max_guarded:4)
       (Helpers.trace_arb ~events:25 ()))
    (fun (inst, trace) ->
      let overlay = overlay_with_headroom inst 0.9 in
      let run audit engine =
        match
          Churn.Engine.run ~policy:Churn.Policy.adaptive_default ~audit ~engine
            ~rebuild_headroom:0.8 overlay trace
        with
        | r -> Ok (r.Churn.Engine.timeline, r.Churn.Engine.summary)
        | exception Churn.Audit.Violation { index; what = _ } -> Error index
      in
      let reference = run Churn.Audit.Strict Churn.Audit.Full in
      List.for_all
        (fun (audit, engine) -> run audit engine = reference)
        [
          (Churn.Audit.Strict, Churn.Audit.Incremental);
          (Churn.Audit.Certificate { strict_every = 0 }, Churn.Audit.Full);
          ( Churn.Audit.Certificate { strict_every = 0 },
            Churn.Audit.Incremental );
          ( Churn.Audit.Certificate { strict_every = 3 },
            Churn.Audit.Incremental );
        ])

(* The certificate's trust boundary, pinned on a hand-corrupted overlay:
   a backward edge (a cycle seed) out of a row the delta names is caught
   by the delta-scoped acyclicity check; the same corruption behind a
   delta that claims the row untouched is — by design — trusted by the
   certificate and only caught by the Strict backstop or a full Check. *)
let test_certificate_delta_scoped_acyclicity () =
  let o, _ = small_overlay 41L in
  let order = Array.copy (Broadcast.Overlay.order o) in
  let tmp = order.(1) in
  order.(1) <- order.(Array.length order - 1);
  order.(Array.length order - 1) <- tmp;
  let corrupted =
    Broadcast.Overlay.of_scheme (Broadcast.Overlay.scheme o) ~order
  in
  (* Find a row whose out-edges now go backward in the corrupted order. *)
  let pos = Broadcast.Overlay.positions corrupted in
  let csr = Broadcast.Scheme.snapshot (Broadcast.Overlay.scheme corrupted) in
  let bad = ref (-1) in
  Flowgraph.Csr.iter_edges
    (fun ~src ~dst _ -> if !bad < 0 && pos.(src) >= pos.(dst) then bad := src)
    csr;
  Alcotest.(check bool) "corruption produced a backward edge" true (!bad >= 0);
  let size = Broadcast.Scheme.size (Broadcast.Overlay.scheme corrupted) in
  let stats_with touched =
    {
      Broadcast.Repair.patch_edges = 0;
      rebuild_edges = Lazy.from_val 0;
      rate_after = Broadcast.Overlay.verified_rate corrupted;
      optimal_after = infinity;
      starved = [];
      node_map = Array.init size (fun v -> v);
      delta =
        {
          Broadcast.Repair.full = false;
          identity = true;
          touched;
          added = [||];
          removed = [||];
          reweighted = [||];
        };
    }
  in
  let cert = Churn.Audit.Certificate { strict_every = 0 } in
  (match
     Churn.Audit.check cert ~index:5 ~stats:(stats_with [| !bad |]) corrupted
   with
  | () -> Alcotest.fail "certificate accepted a backward edge on a touched row"
  | exception Churn.Audit.Violation { index; what } ->
    Alcotest.(check int) "violation carries the event index" 5 index;
    Alcotest.(check bool) "names the backward edge" true
      (let contains s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       contains what "backward"));
  (* A lying delta is trusted — that is the certificate's contract... *)
  (match
     Churn.Audit.check cert ~index:5 ~stats:(stats_with [||]) corrupted
   with
  | () -> ()
  | exception Churn.Audit.Violation _ ->
    Alcotest.fail "certificate did not trust an untouched-claiming delta");
  (* ...and both the full Check scan and the Strict backstop catch what
     the trusting fast path cannot see. *)
  (match Churn.Audit.check Churn.Audit.Check ~index:5 corrupted with
  | () -> Alcotest.fail "full check missed the backward edge"
  | exception Churn.Audit.Violation _ -> ());
  match
    Churn.Audit.check
      (Churn.Audit.Certificate { strict_every = 5 })
      ~index:5 ~stats:(stats_with [||]) corrupted
  with
  | () -> Alcotest.fail "strict backstop missed the backward edge"
  | exception Churn.Audit.Violation _ -> ()

(* Experiment acceptance: the adaptive policy strictly beats always-patch
   on worst-case throughput at a fraction of always-rebuild's churn. *)
let test_policy_comparison_acceptance () =
  let rows = Experiments.Churn_policies.compare_policies ~jobs:2 () in
  let find p =
    List.find (fun (r : Experiments.Churn_policies.row) -> r.policy = p) rows
  in
  let patch = find Churn.Policy.Always_patch in
  let rebuild = find Churn.Policy.Always_rebuild in
  let adaptive =
    List.find
      (fun (r : Experiments.Churn_policies.row) ->
        match r.policy with Churn.Policy.Adaptive _ -> true | _ -> false)
      rows
  in
  Alcotest.(check bool) "adaptive min ratio strictly beats always-patch" true
    (adaptive.min_ratio > patch.min_ratio);
  Alcotest.(check bool) "adaptive churn within 25% of always-rebuild" true
    (float_of_int adaptive.total_churn
    <= 0.25 *. float_of_int rebuild.total_churn)

let suites =
  [
    ( "churn trace",
      [
        Alcotest.test_case "seeded generation is deterministic" `Quick
          test_gen_deterministic;
        Alcotest.test_case "default mix covers all event kinds" `Quick
          test_gen_mix_covers_all_kinds;
        Alcotest.test_case "generation validation" `Quick test_gen_validation;
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "strict reader rejections" `Quick test_json_strict;
        Alcotest.test_case "json golden bytes" `Quick test_json_golden;
      ] );
    ( "churn engine",
      [
        Alcotest.test_case "replay deterministic" `Quick test_engine_deterministic;
        Alcotest.test_case "summary coherent" `Quick test_engine_summary_coherent;
        Alcotest.test_case "policy extremes" `Quick test_policy_extremes;
        Alcotest.test_case "auditor catches corruption" `Quick
          test_audit_catches_corruption;
        Alcotest.test_case "degrade/restore cancel" `Quick
          test_degrade_restore_cancel;
        Alcotest.test_case "correlated batch failure" `Quick
          test_leave_batch_matches_engine;
        Alcotest.test_case "join after floor batch sees fresh state" `Quick
          test_join_after_floor_batch_not_stale;
        Alcotest.test_case "draining trace stalls at the floor" `Quick
          test_drain_trace_stalls_at_floor;
        Alcotest.test_case "fail batch straddling the floor is trimmed" `Quick
          test_fail_batch_straddles_floor;
        Alcotest.test_case "saturated join admits at rate 0" `Quick
          test_join_saturated_regression;
        Alcotest.test_case "policy comparison acceptance" `Slow
          test_policy_comparison_acceptance;
        Alcotest.test_case "certificate delta-scoped acyclicity + trust boundary"
          `Quick test_certificate_delta_scoped_acyclicity;
        QCheck_alcotest.to_alcotest prop_engine_invariants;
        QCheck_alcotest.to_alcotest prop_certificate_matches_strict;
      ] );
  ]
