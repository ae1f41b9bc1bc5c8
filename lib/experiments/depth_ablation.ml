type row = {
  point : Broadcast.Depth.tradeoff_point;
  fifo_lag : float;
  min_depth_lag : float;
}

let stream_lag overlay ~rate =
  let config =
    {
      Stream.Dataplane.default_config with
      chunks = 250;
      streaming = true;
      dedup_inflight = false;
      seed = 13L;
      discipline = Oracle_reservoir;
    }
  in
  let r = Stream.Dataplane.run ~config overlay ~rate in
  if r.delivered_all then r.max_lag *. rate else infinity

let compute ?(nodes = 60) ?(fractions = [ 1.0; 0.9; 0.75; 0.5 ]) ?(seed = 5L) () =
  let rng = Prng.Splitmix.create seed in
  let inst =
    Platform.Generator.generate
      { Platform.Generator.total = nodes; p_open = 0.8; dist = Prng.Dist.unif100 }
      rng
  in
  let points = Broadcast.Depth.tradeoff ~fractions inst in
  List.map
    (fun (point : Broadcast.Depth.tradeoff_point) ->
      let rate = point.Broadcast.Depth.rate in
      match Broadcast.Greedy.test inst ~rate with
      | None -> { point; fifo_lag = nan; min_depth_lag = nan }
      | Some word ->
        let fifo = Broadcast.Low_degree.build inst ~rate word in
        let shallow = Broadcast.Depth.build inst ~rate word in
        {
          point;
          fifo_lag = stream_lag (Broadcast.Scheme.snapshot fifo) ~rate;
          min_depth_lag = stream_lag (Broadcast.Scheme.snapshot shallow) ~rate;
        })
    points

let print fmt =
  Format.pp_print_string fmt
    (Tab.section "E14 (ablation) - depth vs throughput vs degree");
  let rows =
    List.map
      (fun r ->
        let p = r.point in
        [
          Tab.fmt "%.2f" p.Broadcast.Depth.fraction;
          Tab.fmt "%.2f" p.Broadcast.Depth.rate;
          string_of_int p.Broadcast.Depth.fifo_depth;
          string_of_int p.Broadcast.Depth.min_depth;
          string_of_int p.Broadcast.Depth.fifo_max_excess;
          string_of_int p.Broadcast.Depth.min_depth_max_excess;
          Tab.fmt "%.0f" r.fifo_lag;
          Tab.fmt "%.0f" r.min_depth_lag;
        ])
      (compute ())
  in
  Format.pp_print_string fmt
    (Tab.render
       ~header:
         [
           "rate/T*ac"; "rate"; "depth FIFO"; "depth min"; "excess FIFO";
           "excess min"; "lag FIFO"; "lag min";
         ]
       rows);
  Format.pp_print_string fmt
    "The target-rate fraction is the real depth lever: backing off the rate\n\
     flattens the overlay towards log(n). Min-depth sender selection only\n\
     shaves the tail (earliest-sender is already nearly depth-greedy, since\n\
     early nodes are shallow) and costs extra connections. Lag (chunk-times)\n\
     loosely follows depth but is dominated by the slowest overlay edges.\n"
