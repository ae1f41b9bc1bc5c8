open Platform

type row = {
  overlay : string;
  rate : float;
  chunks : int;
  efficiency : float;
  stream_lag : float;
}

let run_overlay ~label overlay ~rate ~chunks =
  let config =
    { Stream.Dataplane.default_config with chunks; discipline = Oracle_reservoir }
  in
  let file = Stream.Dataplane.run ~config overlay ~rate in
  let stream =
    Stream.Dataplane.run ~config:{ config with streaming = true } overlay ~rate
  in
  let chunk_time = config.chunk_size /. rate in
  {
    overlay = label;
    rate;
    chunks;
    efficiency = file.efficiency;
    stream_lag = stream.max_lag /. chunk_time;
  }

let compute ?(chunks = 300) () =
  let fig1 = Instance.fig1 in
  let rate1, scheme1 = Broadcast.Low_degree.build_optimal fig1 in
  let inst2 = Instance.create ~bandwidth:[| 5.; 5.; 4.; 4.; 4.; 3. |] ~n:5 ~m:0 () in
  let scheme2 = Broadcast.Cyclic_open.build ~t:5.0 inst2 in
  let rng = Prng.Splitmix.create 7L in
  let spec =
    { Platform.Generator.total = 30; p_open = 0.7; dist = Prng.Dist.unif100 }
  in
  let inst3 = Platform.Generator.generate spec rng in
  let rate3, scheme3 = Broadcast.Low_degree.build_optimal inst3 in
  let snapshot = Broadcast.Scheme.snapshot in
  [
    run_overlay ~label:"Fig1 low-degree acyclic" (snapshot scheme1) ~rate:rate1 ~chunks;
    run_overlay ~label:"Thm 5.2 cyclic example" (snapshot scheme2) ~rate:5.0 ~chunks;
    run_overlay ~label:"random n=30 Unif100" (snapshot scheme3) ~rate:rate3 ~chunks;
  ]

let print ?chunks fmt =
  Format.pp_print_string fmt
    (Tab.section "E11 - Massoulie transport validation");
  let rows =
    List.map
      (fun r ->
        [
          r.overlay;
          Tab.fmt "%.4f" r.rate;
          string_of_int r.chunks;
          Tab.fmt "%.4f" r.efficiency;
          Tab.fmt "%.1f" r.stream_lag;
        ])
      (compute ?chunks ())
  in
  Format.pp_print_string fmt
    (Tab.render
       ~header:[ "overlay"; "computed rate"; "chunks"; "efficiency"; "lag (chunk-times)" ]
       rows);
  Format.pp_print_string fmt
    "Randomized chunk exchange on the computed overlays delivers the computed\n\
     rate up to pipelining startup (efficiency -> 1 as chunks grow).\n"
