(* End-to-end integration: the complete pipeline the paper describes in
   Section II-C, from measurements to a running broadcast.

     measurement matrix -> last-mile fit -> instance -> T* bounds
       -> greedy word -> low-degree overlay -> max-flow verification
       -> broadcast-tree decomposition -> randomized transport
       -> churn repair

   One deterministic scenario, every interface crossed for real. *)

open Platform

let test_full_pipeline () =
  let nodes = 25 in
  let rng = Prng.Splitmix.create 4242L in
  (* 1. Ground-truth platform and noisy measurements. *)
  let bout = Array.init nodes (fun _ -> Prng.Dist.sample Platform.Plab.dist rng) in
  let bin = Array.map (fun b -> 3. *. b) bout in
  let truth = { Lastmile.Model.bout; bin } in
  let matrix = Lastmile.Model.synthetic_matrix ~noise:0.05 truth rng in
  (* 2. Model estimation. *)
  let fitted = Lastmile.Model.fit matrix in
  Alcotest.(check bool) "fit error bounded" true
    (Lastmile.Model.rmse fitted matrix < 0.3 *. Lastmile.Model.rmse
                                            { Lastmile.Model.bout = Array.make nodes 0.;
                                              bin = Array.make nodes 0. }
                                            matrix);
  (* 3. Instance: strongest node as source, 40% NATed. *)
  let source = ref 0 in
  Array.iteri
    (fun i b -> if b > fitted.Lastmile.Model.bout.(!source) then source := i)
    fitted.Lastmile.Model.bout;
  let guarded =
    Array.init nodes (fun i -> i <> !source && Prng.Splitmix.next_float rng < 0.4)
  in
  let inst, _perm = Lastmile.Model.to_instance fitted ~source:!source ~guarded in
  Alcotest.(check bool) "sorted" true (Instance.sorted inst);
  (* 4. Bounds and the greedy optimum. *)
  let t_cyc = Broadcast.Bounds.cyclic_upper inst in
  let t_ac, word = Broadcast.Greedy.optimal_acyclic inst in
  Alcotest.(check bool) "T*ac <= T*" true (t_ac <= t_cyc +. 1e-9);
  Alcotest.(check bool) "Theorem 6.2 floor" true
    (t_ac >= (5. /. 7.) *. t_cyc -. 1e-6);
  Alcotest.(check bool) "witness complete" true (Broadcast.Word.complete word inst);
  (* 5. Overlay and verification (through the scheme artifact). *)
  let rate, scheme = Broadcast.Low_degree.build_optimal inst in
  let overlay = Broadcast.Scheme.graph scheme in
  let report = Broadcast.Scheme.report scheme in
  Alcotest.(check bool) "structurally valid" true
    (report.Broadcast.Verify.bandwidth_ok && report.Broadcast.Verify.firewall_ok);
  Alcotest.(check bool) "throughput delivered" true
    (Broadcast.Util.fge ~eps:1e-6 report.Broadcast.Verify.throughput rate);
  (* 6. Broadcast-tree decomposition reconstructs the overlay. *)
  let trees = Flowgraph.Arborescence.decompose overlay ~root:0 in
  let rebuilt =
    Flowgraph.Arborescence.recompose trees ~node_count:(Instance.size inst)
  in
  Alcotest.(check bool) "decomposition exact" true
    (Flowgraph.Graph.equal ~eps:(1e-4 *. rate) rebuilt overlay);
  let total_rate =
    List.fold_left (fun acc t -> acc +. t.Flowgraph.Arborescence.weight) 0. trees
  in
  Alcotest.(check bool) "tree rates sum to the rate" true
    (Float.abs (total_rate -. rate) < 1e-5 *. rate);
  (* 7. Transport achieves the rate, on the production dataplane. *)
  let sim =
    Stream.Dataplane.run
      ~config:
        {
          Stream.Dataplane.default_config with
          chunks = 200;
          dedup_inflight = false;
          discipline = Oracle_reservoir;
        }
      (Broadcast.Scheme.snapshot scheme) ~rate
  in
  Alcotest.(check bool) "transport delivers" true sim.delivered_all;
  Alcotest.(check bool) "transport efficiency" true (sim.efficiency > 0.4);
  (* 8. Survive one churn event with headroom. *)
  let o = Broadcast.Overlay.build ~rate:(t_ac *. 0.85) inst in
  let o', stats = Broadcast.Repair.leave o ~node:(Instance.size inst - 1) in
  Alcotest.(check bool) "repair well-formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "repair cheap" true
    (stats.Broadcast.Repair.patch_edges <= (Lazy.force stats.Broadcast.Repair.rebuild_edges))

let test_serialization_pipeline () =
  (* CLI-style roundtrip: generate -> serialize -> parse -> solve. *)
  let rng = Prng.Splitmix.create 9L in
  let inst =
    Generator.generate { Generator.total = 12; p_open = 0.6; dist = Prng.Dist.unif100 } rng
  in
  match Instance.of_string (Instance.to_string inst) with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok inst' ->
    let inst', _ = Instance.normalize inst' in
    let t1, _ = Broadcast.Greedy.optimal_acyclic inst in
    let t2, _ = Broadcast.Greedy.optimal_acyclic inst' in
    Helpers.close ~tol:1e-12 "identical optimum after roundtrip" t1 t2

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "full pipeline" `Quick test_full_pipeline;
        Alcotest.test_case "serialization pipeline" `Quick test_serialization_pipeline;
      ] );
  ]
