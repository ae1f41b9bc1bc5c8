(* Tests for the one-port baseline simulator and the model comparison. *)

module OP = Stream.One_port

let simple_platform n =
  let bout = Array.make (n + 1) 10. in
  let bin = Array.make (n + 1) 20. in
  let guarded = Array.make (n + 1) false in
  (bout, bin, guarded)

let test_delivers () =
  let bout, bin, guarded = simple_platform 5 in
  let r = OP.simulate ~bout ~bin ~guarded () in
  Alcotest.(check bool) "delivered" true r.OP.delivered_all;
  Alcotest.(check bool) "rate positive" true (r.OP.achieved_rate > 0.);
  Alcotest.(check bool) "transfers at least K * n" true
    (r.OP.transfers >= OP.default_config.OP.chunks * 5)

let test_serialization_penalty () =
  (* One fast source, slow receivers with moderate downlinks: the source
     can only serve one at a time, so per-node rate collapses (the paper's
     Section II-A complaint). *)
  let n = 10 in
  let bout = Array.make (n + 1) 1. in
  bout.(0) <- 1000.;
  let bin = Array.make (n + 1) 10. in
  let guarded = Array.make (n + 1) false in
  let r = OP.simulate ~bout ~bin ~guarded () in
  Alcotest.(check bool) "delivered" true r.OP.delivered_all;
  (* The source pumps at most min(1000, 10) = 10 serially; peers add ~1
     each; no node can receive faster than its share. *)
  Alcotest.(check bool) "rate far below downlink cap" true
    (r.OP.achieved_rate < 5.)

let test_respects_firewall () =
  (* Two guarded nodes and an open source: all traffic to guarded nodes
     must originate at open nodes — with only the source open, the whole
     broadcast serializes through it. *)
  let bout = [| 10.; 10.; 10. |] in
  let bin = [| 20.; 20.; 20. |] in
  let guarded = [| false; true; true |] in
  let r = OP.simulate ~bout ~bin ~guarded () in
  Alcotest.(check bool) "delivered" true r.OP.delivered_all;
  (* The source alone supplies 2 * K chunks at rate 10, one at a time:
     completion >= 2K/10. *)
  let k = float_of_int OP.default_config.OP.chunks in
  Alcotest.(check bool) "serialized through the source" true
    (r.OP.completion_time >= 2. *. k /. 10. -. 1e-6)

let test_guarded_source_rejected () =
  let bout, bin, _ = simple_platform 2 in
  try
    ignore (OP.simulate ~bout ~bin ~guarded:[| true; false; false |] ());
    Alcotest.fail "guarded source accepted"
  with Invalid_argument _ -> ()

let test_size_mismatch () =
  try
    ignore (OP.simulate ~bout:[| 1.; 1. |] ~bin:[| 1. |] ~guarded:[| false; false |] ());
    Alcotest.fail "size mismatch accepted"
  with Invalid_argument _ -> ()

let test_determinism () =
  let bout, bin, guarded = simple_platform 4 in
  let a = OP.simulate ~bout ~bin ~guarded () in
  let b = OP.simulate ~bout ~bin ~guarded () in
  Alcotest.(check (float 0.)) "deterministic" a.OP.completion_time b.OP.completion_time

let test_comparison_rows () =
  let r =
    Experiments.One_port_comparison.compute ~nodes:10 ~chunks:60
      ~scenario:"test" ~dist:Prng.Dist.unif100 ()
  in
  Alcotest.(check bool) "both rates positive" true
    (r.Experiments.One_port_comparison.one_port_rate > 0.
    && r.Experiments.One_port_comparison.multi_port_rate > 0.)

let test_comparison_server_dsl_advantage () =
  let r =
    Experiments.One_port_comparison.compute ~nodes:16 ~chunks:80
      ~source_bout:1000. ~scenario:"server+DSL"
      ~dist:(Prng.Dist.Uniform { lo = 1.5; hi = 2.5 })
      ()
  in
  Alcotest.(check bool) "multi-port wins by > 2x" true
    (r.Experiments.One_port_comparison.advantage > 2.)

let suites =
  [
    ( "one_port",
      [
        Alcotest.test_case "delivers" `Quick test_delivers;
        Alcotest.test_case "serialization penalty" `Quick test_serialization_penalty;
        Alcotest.test_case "firewall respected" `Quick test_respects_firewall;
        Alcotest.test_case "guarded source rejected" `Quick test_guarded_source_rejected;
        Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "E16 comparison row" `Quick test_comparison_rows;
        Alcotest.test_case "E16 server+DSL advantage" `Quick test_comparison_server_dsl_advantage;
      ] );
  ]
