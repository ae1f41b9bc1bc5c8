(* Wall-clock benchmark for the tracker daemon's serving loop
   (Tracker.Session, no transport IO).

   For each population size, builds a platform from a fixed seed and
   renders a bursty NDJSON request stream — alternating runs of joins
   and leaves, the arrival pattern batch admission exists for — then
   serves the identical stream through two sessions:

   - unbatched: batch = 1, every request is one engine event (one
     repair, one O(V + E) metrics/audit pass);
   - batched:   batch = [batch_size], runs coalesce into one
     Fail_batch / Flash_crowd each (one repair, one audit per run);
   - journaled: the batched session with a write-ahead journal at
     --sync batch cadence (one fsync per sealed batch), checkpoints
     every 8 batches — the durable serving configuration.

   All sessions end by asserting they served every request. Two gates at
   n = 10^4: the batched session must serve at least 2x the requests/s
   of the unbatched one — if coalescing stops amortizing the per-event
   O(V + E) cost, the tracker's admission window is dead weight — and
   journaling must cost at most 1.5x the batched request latency
   (requests/s ratio), or durability is too expensive to leave on.

   Run with `make bench-tracker` or `dune exec -- bench/tracker_bench.exe`. *)

type row = {
  nodes : int;
  requests : int;
  mode : string;
  batch : int;
  events : int;  (** coalesced events committed to the engine *)
  seconds : float;
  requests_per_s : float;
}

let batch_size = 32
let run_len = 16

(* Bursty request stream: alternating runs of [run_len] joins and
   [run_len] leaves, rendered once as NDJSON lines so both sessions
   parse identical bytes. Join/leave alternation keeps the population
   near its starting size for the whole stream. *)
let request_lines ~requests rng =
  List.init requests (fun i ->
      if i / run_len mod 2 = 0 then
        let bandwidth = 1. +. float_of_int (Prng.Splitmix.next_below rng 100) in
        Churn.Trace.event_to_json
          (Churn.Trace.Join { bandwidth; guarded = false })
      else
        Churn.Trace.event_to_json
          (Churn.Trace.Leave { pick = Prng.Splitmix.next_below rng 1_000_000 }))

let overlay_of ~nodes =
  let rng = Prng.Splitmix.create (Int64.of_int (7100 + nodes)) in
  let inst =
    Platform.Generator.generate
      { Platform.Generator.total = nodes; p_open = 0.7; dist = Prng.Dist.unif100 }
      rng
  in
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. 0.9) inst

let serve ?journal_dir ~nodes ~batch ~mode overlay lines =
  let config = { Tracker.Session.default_config with batch } in
  let journal =
    Option.map
      (fun dir ->
        fst
          (Tracker.Journal.start ~dir ~sync:Tracker.Journal.Batch
             ~checkpoint_every:8 ~restore:false ()))
      journal_dir
  in
  let session = Tracker.Session.create ?journal config overlay in
  let answered = ref 0 in
  let seconds, () =
    Bench_util.time_once (fun () ->
        List.iter
          (fun line ->
            answered := !answered + List.length (Tracker.Session.submit session line))
          lines;
        answered := !answered + List.length (Tracker.Session.flush session))
  in
  let requests = List.length lines in
  if !answered <> requests then begin
    Printf.printf "FAIL: %s session at n=%d answered %d of %d requests\n" mode
      nodes !answered requests;
    exit 1
  end;
  Option.iter Tracker.Journal.close journal;
  let c = Tracker.Session.counters session in
  if c.Tracker.Session.errors > 0 || c.Tracker.Session.rollbacks > 0 then begin
    Printf.printf "FAIL: %s session at n=%d hit %d errors, %d rollbacks\n" mode
      nodes c.Tracker.Session.errors c.Tracker.Session.rollbacks;
    exit 1
  end;
  {
    nodes;
    requests;
    mode;
    batch;
    events = c.Tracker.Session.events;
    seconds;
    requests_per_s = float_of_int requests /. seconds;
  }

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let bench ~nodes ~requests =
  let overlay = overlay_of ~nodes in
  let lines =
    request_lines ~requests (Prng.Splitmix.create (Int64.of_int (7200 + nodes)))
  in
  let unbatched = serve ~nodes ~batch:1 ~mode:"unbatched" overlay lines in
  let batched = serve ~nodes ~batch:batch_size ~mode:"batched" overlay lines in
  let journal_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bmp-tracker-bench-%d-%d" (Unix.getpid ()) nodes)
  in
  let journaled =
    Fun.protect
      ~finally:(fun () -> try rm_rf journal_dir with Sys_error _ -> ())
      (fun () ->
        serve ~journal_dir ~nodes ~batch:batch_size ~mode:"journaled" overlay
          lines)
  in
  [ unbatched; batched; journaled ]

let gate_nodes = 10_000
let gate_min_speedup = 2.0
let gate_journal_overhead_max = 1.5

let emit_json rows ~speedup_at_gate ~journaled_rps ~journal_overhead_at_gate
    path =
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n  \"benchmark\": \"tracker\",\n  \"unit\": \"requests_per_second\",\n";
  p "  \"batch_size\": %d,\n" batch_size;
  p "  \"run_len\": %d,\n" run_len;
  p "  \"gate_nodes\": %d,\n" gate_nodes;
  p "  \"gate_min_speedup\": %.1f,\n" gate_min_speedup;
  p "  \"speedup_at_gate\": %.2f,\n" speedup_at_gate;
  p "  \"journaled_rps\": %.1f,\n" journaled_rps;
  p "  \"gate_journal_overhead_max\": %.1f,\n" gate_journal_overhead_max;
  p "  \"journal_overhead_at_gate\": %.2f,\n" journal_overhead_at_gate;
  p "  \"rows\": [\n";
  List.iteri
    (fun i r ->
      p
        "    {\"nodes\": %d, \"requests\": %d, \"mode\": \"%s\", \
         \"batch\": %d, \"events\": %d, \"seconds\": %.6e, \
         \"requests_per_s\": %.1f}%s\n"
        r.nodes r.requests r.mode r.batch r.events r.seconds r.requests_per_s
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ]\n}\n";
  close_out oc

let () =
  let rows =
    List.concat
      [ bench ~nodes:10_000 ~requests:128; bench ~nodes:100_000 ~requests:32 ]
  in
  Printf.printf "%-8s %-9s %-10s %-6s %-7s %10s %12s\n" "nodes" "requests"
    "mode" "batch" "events" "seconds" "requests/s";
  List.iter
    (fun r ->
      Printf.printf "%-8d %-9d %-10s %-6d %-7d %10.3f %12.1f\n" r.nodes
        r.requests r.mode r.batch r.events r.seconds r.requests_per_s)
    rows;
  let rate ~nodes ~mode =
    match
      List.find_opt (fun r -> r.nodes = nodes && String.equal r.mode mode) rows
    with
    | Some r -> r.requests_per_s
    | None ->
      Printf.printf "FAIL: missing %s row at n=%d\n" mode nodes;
      exit 1
  in
  let speedup_at_gate =
    rate ~nodes:gate_nodes ~mode:"batched" /. rate ~nodes:gate_nodes ~mode:"unbatched"
  in
  let journaled_rps = rate ~nodes:gate_nodes ~mode:"journaled" in
  (* Journaling overhead as a latency ratio: batched requests/s over
     journaled requests/s — 1.0 means free, the gate caps it at 1.5. *)
  let journal_overhead_at_gate =
    rate ~nodes:gate_nodes ~mode:"batched" /. journaled_rps
  in
  Printf.printf "batched/unbatched speedup at n=%d: %.2fx\n" gate_nodes
    speedup_at_gate;
  Printf.printf "journaling overhead (--sync batch) at n=%d: %.2fx\n" gate_nodes
    journal_overhead_at_gate;
  emit_json rows ~speedup_at_gate ~journaled_rps ~journal_overhead_at_gate
    "BENCH_tracker.json";
  print_endline "wrote BENCH_tracker.json";
  if speedup_at_gate < gate_min_speedup then begin
    Printf.printf "FAIL: batched serving %.2fx < %.1fx unbatched at n=%d\n"
      speedup_at_gate gate_min_speedup gate_nodes;
    exit 1
  end;
  if journal_overhead_at_gate > gate_journal_overhead_max then begin
    Printf.printf
      "FAIL: --sync batch journaling costs %.2fx > %.1fx the unjournaled \
       request latency at n=%d\n"
      journal_overhead_at_gate gate_journal_overhead_max gate_nodes;
    exit 1
  end
