(* Live streaming to a swarm with NATed viewers — the paper's motivating
   CoolStreaming/PPLive scenario.

   A 60-peer swarm is drawn from the PlanetLab-like bandwidth pool, 40% of
   peers sit behind NATs (guarded). We build the optimal low-degree acyclic
   overlay, then push a live stream through it with the randomized
   chunk-exchange transport and measure the playout delay viewers need.

   Run with: dune exec examples/live_streaming.exe *)

let () =
  let rng = Prng.Splitmix.create 2024L in
  let spec =
    { Platform.Generator.total = 60; p_open = 0.6; dist = Platform.Plab.dist }
  in
  let swarm = Platform.Generator.generate spec rng in
  Printf.printf "swarm: %d open peers, %d NATed peers, source uplink %.1f Mb/s\n"
    swarm.Platform.Instance.n swarm.Platform.Instance.m
    swarm.Platform.Instance.bandwidth.(0);

  let t_star = Broadcast.Bounds.cyclic_upper swarm in
  let rate, scheme = Broadcast.Low_degree.build_optimal swarm in
  let overlay = Broadcast.Scheme.snapshot scheme in
  Printf.printf "stream rate: %.2f Mb/s (cyclic upper bound %.2f -> %.1f%% achieved)\n"
    rate t_star (100. *. rate /. t_star);

  let degrees = Broadcast.Metrics.scheme_report scheme in
  Printf.printf "max connections per peer: %d (max excess over ceil(b/T): %d)\n"
    (Broadcast.Metrics.max_outdegree_csr overlay)
    degrees.Broadcast.Metrics.max_excess;
  Printf.printf "overlay depth (hops from source): %d\n"
    (Broadcast.Metrics.scheme_depth scheme);

  (* Streaming simulation. Chunk duration matters: a chunk must be small
     enough that the slowest overlay edge can relay it quickly, otherwise
     viewers behind that edge buffer for chunk_size / slowest_edge_rate.
     We compare two chunk durations. *)
  let slowest_edge = Array.fold_left Float.min infinity overlay.Flowgraph.Csr.w in
  Printf.printf "slowest overlay edge: %.2f Mb/s\n" slowest_edge;
  let run_stream seconds_per_chunk chunks =
    let config =
      {
        Stream.Dataplane.default_config with
        chunks;
        chunk_size = seconds_per_chunk *. rate;
        streaming = true;
        seed = 7L;
        (* Allow duplicate deliveries (Massoulié's actual policy): a slow
           edge must not hold a chunk hostage while fast edges idle. *)
        dedup_inflight = false;
        discipline = Oracle_reservoir;
      }
    in
    let sim = Stream.Dataplane.run ~config overlay ~rate in
    if not sim.delivered_all then
      Printf.printf "  %4.2f s chunks: stream did not complete in the horizon\n"
        seconds_per_chunk
    else
      Printf.printf
        "  %4.2f s chunks: worst playout buffering %7.1f s over %d chunks \
         (%.0f s of stream, %d/%d duplicate transfers)\n"
        seconds_per_chunk sim.max_lag chunks
        (float_of_int chunks *. seconds_per_chunk)
        sim.duplicates sim.transfers
  in
  print_endline "\nstreaming simulation (buffering needed by the worst viewer):";
  run_stream 1.0 150;
  run_stream 0.1 1500
