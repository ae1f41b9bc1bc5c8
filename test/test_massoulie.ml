(* Tests for the reference transport simulator (Oracle.Sim) and its
   boxed event queue — the oracles Stream.Dataplane is checked against. *)

module G = Flowgraph.Graph
module Sim = Oracle.Sim

let test_pqueue_order () =
  let q = Oracle.Pqueue.create () in
  Alcotest.(check bool) "empty" true (Oracle.Pqueue.is_empty q);
  List.iter (fun k -> Oracle.Pqueue.push q k (int_of_float k))
    [ 5.; 1.; 3.; 2.; 4.; 0.5 ];
  Alcotest.(check int) "size" 6 (Oracle.Pqueue.size q);
  Alcotest.(check (option (float 0.))) "peek" (Some 0.5) (Oracle.Pqueue.peek_key q);
  let rec drain acc =
    match Oracle.Pqueue.pop q with
    | None -> List.rev acc
    | Some (k, _) -> drain (k :: acc)
  in
  Alcotest.(check (list (float 0.))) "sorted drain" [ 0.5; 1.; 2.; 3.; 4.; 5. ]
    (drain [])

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pqueue drains sorted" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 200) (float_range 0. 1000.))
    (fun keys ->
      let q = Oracle.Pqueue.create () in
      List.iter (fun k -> Oracle.Pqueue.push q k ()) keys;
      let rec drain acc =
        match Oracle.Pqueue.pop q with
        | None -> List.rev acc
        | Some (k, ()) -> drain (k :: acc)
      in
      drain [] = List.sort Float.compare keys)

let fig1_overlay () =
  let rate, scheme = Broadcast.Low_degree.build_optimal Platform.Instance.fig1 in
  (rate, Broadcast.Scheme.graph scheme)

let test_delivers_fig1 () =
  let rate, overlay = fig1_overlay () in
  let config = { Sim.default_config with chunks = 300 } in
  let r = Sim.simulate ~config overlay ~rate in
  Alcotest.(check bool) "delivered" true r.Sim.delivered_all;
  Alcotest.(check bool) "efficiency sane" true
    (r.Sim.efficiency > 0.8 && r.Sim.efficiency <= 1.0 +. 1e-9);
  Alcotest.(check int) "no duplicates with dedup" 0 r.Sim.duplicates;
  (* Exactly K chunks must reach each of the 5 receivers. *)
  Alcotest.(check int) "transfer count" (300 * 5) r.Sim.transfers

let test_efficiency_improves_with_chunks () =
  let rate, overlay = fig1_overlay () in
  let eff chunks =
    (Sim.simulate ~config:{ Sim.default_config with chunks } overlay ~rate)
      .Sim.efficiency
  in
  Alcotest.(check bool) "more chunks, closer to rate" true
    (eff 400 > eff 20 -. 0.02)

let test_completion_lower_bound () =
  (* Completion can never beat the ideal K * size / rate. *)
  let rate, overlay = fig1_overlay () in
  let config = { Sim.default_config with chunks = 100 } in
  let r = Sim.simulate ~config overlay ~rate in
  Alcotest.(check bool) "completion >= ideal" true
    (r.Sim.completion_time >= (100. /. rate) -. 1e-9)

let test_streaming_mode () =
  let rate, overlay = fig1_overlay () in
  let config = { Sim.default_config with chunks = 200; streaming = true } in
  let r = Sim.simulate ~config overlay ~rate in
  Alcotest.(check bool) "delivered" true r.Sim.delivered_all;
  (* The last chunk is only released at (K-1)/rate. *)
  Alcotest.(check bool) "completion after last release" true
    (r.Sim.completion_time >= 199. /. rate);
  Alcotest.(check bool) "lag positive and below horizon" true
    (r.Sim.max_lag > 0. && r.Sim.max_lag < 1e5)

let test_dedup_off_allows_duplicates () =
  (* On an overlay with parallel paths of very different speeds, duplicates
     appear once dedup is off, and delivery still completes. *)
  let g = G.create 4 in
  G.add_edge g ~src:0 ~dst:1 10.;
  G.add_edge g ~src:0 ~dst:2 10.;
  G.add_edge g ~src:1 ~dst:2 0.5;
  G.add_edge g ~src:2 ~dst:3 10.;
  let config = { Sim.default_config with chunks = 200; dedup_inflight = false } in
  let r = Sim.simulate ~config g ~rate:10. in
  Alcotest.(check bool) "delivered" true r.Sim.delivered_all;
  Alcotest.(check bool) "some duplicates" true (r.Sim.duplicates > 0)

let test_determinism () =
  let rate, overlay = fig1_overlay () in
  let config = { Sim.default_config with chunks = 150 } in
  let a = Sim.simulate ~config overlay ~rate in
  let b = Sim.simulate ~config overlay ~rate in
  Alcotest.(check (float 0.)) "same seed same completion" a.Sim.completion_time
    b.Sim.completion_time;
  Alcotest.(check int) "same transfers" a.Sim.transfers b.Sim.transfers

let test_undelivered_on_dead_overlay () =
  (* A node with no in-edges can never complete. *)
  let g = G.create 3 in
  G.add_edge g ~src:0 ~dst:1 1.;
  let r = Sim.simulate ~config:{ Sim.default_config with chunks = 10 } g ~rate:1. in
  Alcotest.(check bool) "not delivered" false r.Sim.delivered_all;
  Alcotest.(check bool) "completion infinite" true (r.Sim.completion_time = infinity);
  Alcotest.(check (float 0.)) "efficiency zero" 0. r.Sim.efficiency

let test_single_node () =
  let g = G.create 1 in
  let r = Sim.simulate ~config:{ Sim.default_config with chunks = 5 } g ~rate:1. in
  Alcotest.(check bool) "trivially delivered" true r.Sim.delivered_all;
  Alcotest.(check (float 0.)) "zero time" 0. r.Sim.completion_time

let test_invalid_configs () =
  let g = G.create 2 in
  G.add_edge g ~src:0 ~dst:1 1.;
  (try
     ignore (Sim.simulate g ~rate:0.);
     Alcotest.fail "zero rate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Sim.simulate ~config:{ Sim.default_config with chunks = 0 } g ~rate:1.);
    Alcotest.fail "zero chunks accepted"
  with Invalid_argument _ -> ()

(* Transport delivers (close to) the computed rate on random optimal
   overlays — the paper's architectural claim. *)
let prop_transport_achieves_rate =
  QCheck.Test.make ~name:"transport efficiency > 0.4 on random overlays" ~count:10
    (Helpers.instance_arb ~max_open:8 ~max_guarded:5) (fun inst ->
      let rate, scheme = Broadcast.Low_degree.build_optimal inst in
      let overlay = Broadcast.Scheme.graph scheme in
      QCheck.assume (rate > 1e-6);
      (* dedup off: with extreme heterogeneity a sliver edge would
         otherwise hold single chunks hostage for its whole transfer
         time (see the Sim.config documentation). *)
      let config =
        { Sim.default_config with chunks = 150; dedup_inflight = false }
      in
      let r = Sim.simulate ~config overlay ~rate in
      r.Sim.delivered_all && r.Sim.efficiency > 0.4)

let suites =
  [
    ( "pqueue",
      [
        Alcotest.test_case "ordering" `Quick test_pqueue_order;
        QCheck_alcotest.to_alcotest prop_pqueue_sorts;
      ] );
    ( "massoulie",
      [
        Alcotest.test_case "delivers fig1" `Quick test_delivers_fig1;
        Alcotest.test_case "efficiency grows with chunks" `Quick test_efficiency_improves_with_chunks;
        Alcotest.test_case "completion lower bound" `Quick test_completion_lower_bound;
        Alcotest.test_case "streaming mode" `Quick test_streaming_mode;
        Alcotest.test_case "duplicates without dedup" `Quick test_dedup_off_allows_duplicates;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "dead overlay" `Quick test_undelivered_on_dead_overlay;
        Alcotest.test_case "single node" `Quick test_single_node;
        Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
        QCheck_alcotest.to_alcotest prop_transport_achieves_rate;
      ] );
  ]

(* -- jitter extension -- *)

let test_jitter_validation () =
  let g = G.create 2 in
  G.add_edge g ~src:0 ~dst:1 1.;
  try
    ignore (Sim.simulate ~config:{ Sim.default_config with jitter = -0.1 } g ~rate:1.);
    Alcotest.fail "negative jitter accepted"
  with Invalid_argument _ -> ()

let test_jitter_still_delivers () =
  let rate, overlay = fig1_overlay () in
  let config =
    { Sim.default_config with chunks = 200; jitter = 0.3; dedup_inflight = false }
  in
  let r = Sim.simulate ~config overlay ~rate in
  Alcotest.(check bool) "delivered under jitter" true r.Sim.delivered_all;
  Alcotest.(check bool) "efficiency still sane" true (r.Sim.efficiency > 0.5)

let test_jitter_zero_matches_baseline () =
  let rate, overlay = fig1_overlay () in
  let config = { Sim.default_config with chunks = 100 } in
  let a = Sim.simulate ~config overlay ~rate in
  let b = Sim.simulate ~config:{ config with jitter = 0. } overlay ~rate in
  Alcotest.(check (float 0.)) "jitter 0 is exact baseline" a.Sim.completion_time
    b.Sim.completion_time

let jitter_suite =
  [
    ( "jitter",
      [
        Alcotest.test_case "validation" `Quick test_jitter_validation;
        Alcotest.test_case "delivers under jitter" `Quick test_jitter_still_delivers;
        Alcotest.test_case "zero jitter baseline" `Quick test_jitter_zero_matches_baseline;
      ] );
  ]

let suites = suites @ jitter_suite
