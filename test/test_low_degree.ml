(* Tests for the low-degree scheme construction (Lemma 4.6 / Theorem 4.1). *)

open Platform

let check_lemma_46_degrees s =
  let d = Broadcast.Metrics.scheme_report s in
  (match d.Broadcast.Metrics.max_excess_guarded with
  | Some e when e > 1 -> Alcotest.failf "guarded excess %d > 1" e
  | _ -> ());
  (match d.Broadcast.Metrics.max_excess_open with
  | Some e when e > 3 -> Alcotest.failf "open excess %d > 3" e
  | None -> Alcotest.fail "open class (source included) cannot be empty"
  | _ -> ());
  if d.Broadcast.Metrics.opens_above 2 > 1 then
    Alcotest.failf "%d open nodes above +2 (at most one allowed)"
      (d.Broadcast.Metrics.opens_above 2)

let test_fig1 () =
  let inst = Instance.fig1 in
  let rate = 4.0 in
  let w = Broadcast.Word.of_string "gogog" in
  let s = Broadcast.Low_degree.build inst ~rate w in
  ignore (Helpers.check_artifact s ~rate);
  Alcotest.(check bool) "acyclic" true (Broadcast.Scheme.is_acyclic s);
  Alcotest.(check string) "provenance" "theorem41"
    (Broadcast.Scheme.algorithm_name
       (Broadcast.Scheme.provenance s).Broadcast.Scheme.algorithm);
  check_lemma_46_degrees s;
  (* Every non-source node receives exactly the rate. *)
  let g = Broadcast.Scheme.graph s in
  for v = 1 to 5 do
    Helpers.close ~tol:1e-6 "in-weight" (Flowgraph.Graph.in_weight g v) rate
  done

let test_acyclicity_respects_word_order () =
  let inst = Instance.fig1 in
  let w = Broadcast.Word.of_string "gogog" in
  let g = Broadcast.Scheme.graph (Broadcast.Low_degree.build inst ~rate:4. w) in
  let order = Broadcast.Word.to_order w inst in
  let pos = Array.make 6 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Flowgraph.Graph.iter_edges
    (fun ~src ~dst _ ->
      if pos.(src) >= pos.(dst) then
        Alcotest.failf "edge %d->%d violates word order" src dst)
    g

let test_rejects_infeasible () =
  let inst = Instance.fig1 in
  let w = Broadcast.Word.of_string "ggoog" in
  (* ggoog needs 8 units of source bandwidth at rate 4: must fail. *)
  try
    ignore (Broadcast.Low_degree.build inst ~rate:4. w);
    Alcotest.fail "infeasible word accepted"
  with Invalid_argument _ -> ()

let test_build_optimal_fig1 () =
  let rate, s = Broadcast.Low_degree.build_optimal Instance.fig1 in
  Helpers.close ~tol:1e-6 "rate ~ 4" rate 4.;
  ignore (Helpers.check_artifact s ~rate)

(* The full Theorem 4.1 statement, property-tested: optimal throughput,
   acyclic, firewall-safe, with the Lemma 4.6 degree bounds. *)
let prop_theorem41 =
  QCheck.Test.make ~name:"Theorem 4.1 pipeline" ~count:60
    (Helpers.instance_arb ~max_open:12 ~max_guarded:12) (fun inst ->
      let rate, scheme = Broadcast.Low_degree.build_optimal inst in
      QCheck.assume (rate > 1e-6);
      let report = Helpers.check_artifact scheme ~rate in
      if not report.Broadcast.Verify.acyclic then Alcotest.fail "cyclic scheme";
      check_lemma_46_degrees scheme;
      true)

(* Firewall constraint holds even on guarded-heavy instances. *)
let prop_firewall =
  QCheck.Test.make ~name:"no guarded-guarded edges" ~count:40
    (Helpers.instance_arb ~max_open:3 ~max_guarded:15) (fun inst ->
      let rate, scheme = Broadcast.Low_degree.build_optimal inst in
      QCheck.assume (rate > 1e-6);
      let ok = ref true in
      Flowgraph.Graph.iter_edges
        (fun ~src ~dst _ ->
          if Instance.is_guarded inst src && Instance.is_guarded inst dst then
            ok := false)
        (Broadcast.Scheme.graph scheme);
      !ok)

(* Guarded senders always serve consecutive intervals of open nodes (the
   key structural step in the proof of Lemma 4.6). *)
let prop_guarded_interval =
  QCheck.Test.make ~name:"guarded nodes feed open intervals" ~count:40
    (Helpers.instance_arb ~max_open:10 ~max_guarded:10) (fun inst ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      let rate = t *. 0.99 in
      QCheck.assume (rate > 1e-6);
      let word =
        match Broadcast.Greedy.test inst ~rate with
        | Some w -> w
        | None -> QCheck.assume_fail ()
      in
      let scheme =
        Broadcast.Scheme.graph (Broadcast.Low_degree.build inst ~rate word)
      in
      (* Lemma 4.6's proof: every guarded node uploads to a consecutive
         interval of OPEN nodes. Open nodes are fed in index order, so the
         receivers' node indices must be consecutive. *)
      let ok = ref true in
      for g = inst.Instance.n + 1 to inst.Instance.n + inst.Instance.m do
        let receivers =
          Flowgraph.Graph.out_edges scheme g
          |> List.map (fun (v, _) ->
                 if Instance.is_guarded inst v then
                   Alcotest.failf "guarded node %d feeds guarded node %d" g v;
                 v)
          |> List.sort compare
        in
        let rec consecutive = function
          | a :: b :: rest -> b = a + 1 && consecutive (b :: rest)
          | _ -> true
        in
        if not (consecutive receivers) then ok := false
      done;
      !ok)

(* [constructible] runs the builder's pool accounting without emitting
   edges: it must answer "would [build] succeed" exactly, also for words
   and rates around the tolerance edge (bandwidths scaled towards 0,
   rates at and just above the optimum). *)
let prop_constructible_matches_build =
  QCheck.Test.make ~name:"constructible iff build succeeds" ~count:200
    (QCheck.triple
       (Helpers.instance_arb ~max_open:8 ~max_guarded:6)
       (QCheck.oneofl [ 1.; 1e-6; 1e-10; 1e-13 ])
       (QCheck.oneofl [ 0.5; 1. -. 4e-9; 1.; 1. +. 1e-7; 1.01 ]))
    (fun (inst, scale, factor) ->
      let inst =
        Instance.create
          ~bandwidth:(Array.map (fun b -> b *. scale) inst.Instance.bandwidth)
          ~n:inst.Instance.n ~m:inst.Instance.m ()
      in
      let t, w = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 0.);
      let rate = t *. factor in
      let builds =
        match Broadcast.Low_degree.build inst ~rate w with
        | _ -> true
        | exception Invalid_argument _ -> false
      in
      Broadcast.Low_degree.constructible inst ~rate w = builds)

let suites =
  [
    ( "low_degree",
      [
        Alcotest.test_case "fig1 construction" `Quick test_fig1;
        Alcotest.test_case "edges follow word order" `Quick test_acyclicity_respects_word_order;
        Alcotest.test_case "rejects infeasible word" `Quick test_rejects_infeasible;
        Alcotest.test_case "build_optimal on fig1" `Quick test_build_optimal_fig1;
        QCheck_alcotest.to_alcotest prop_theorem41;
        QCheck_alcotest.to_alcotest prop_firewall;
        QCheck_alcotest.to_alcotest prop_guarded_interval;
        QCheck_alcotest.to_alcotest prop_constructible_matches_build;
      ] );
  ]
