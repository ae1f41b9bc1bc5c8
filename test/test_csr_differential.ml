(* QCheck differential suite for the CSR Dinic engine: on ~300 random
   graphs — acyclic and cyclic, including zero-edge and single-node
   fringes — the CSR engine (Maxflow), the frozen legacy list engine
   (Maxflow_legacy) and, on DAGs, the O(V + E) incoming-cut closed form
   (Topo.min_incoming_cut) must produce equal broadcast-flow values
   within eps and identical achieves_rate verdicts. *)

module G = Flowgraph.Graph
module MF = Flowgraph.Maxflow
module Legacy = Oracle.Maxflow_legacy

let close what a b =
  (* Relative 1e-6, with infinities compared exactly (single-node and
     unreachable fringes produce infinity / 0). *)
  if a = b then true
  else if
    Float.abs (a -. b)
    <= 1e-6 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))
  then true
  else QCheck.Test.fail_reportf "%s: %g vs %g" what a b

(* Graph shapes: n in [1, 24] covers the single-node fringe; density 0
   covers the zero-edge fringe; [`Dag] restricts edges to i < j. *)
let build_graph kind n density seed =
  let rng = Prng.Splitmix.create (Int64.of_int (0x5eed + seed)) in
  let g = G.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let forward_only = kind = `Dag in
      if i <> j && ((not forward_only) || i < j)
         && Prng.Splitmix.next_float rng < density
      then G.add_edge g ~src:i ~dst:j (0.1 +. (9.9 *. Prng.Splitmix.next_float rng))
    done
  done;
  g

(* Shrink towards small sparse graphs: fewer nodes first (the dominant
   simplification), then lower density, then a smaller seed — so a
   failing case minimizes to a graph a human can draw. *)
let case_shrink (kind, n, d, seed) yield =
  QCheck.Shrink.int n (fun n -> if n >= 1 then yield (kind, n, d, seed));
  List.iter
    (fun d' -> if d' < d then yield (kind, n, d', seed))
    [ 0.; 0.15; 0.3; 0.5 ];
  QCheck.Shrink.int seed (fun seed -> yield (kind, n, d, seed))

let case_arb kinds =
  QCheck.make
    ~print:(fun (kind, n, d, seed) ->
      Printf.sprintf "%s n=%d density=%g seed=%d"
        (match kind with `Dag -> "dag" | `Digraph -> "digraph")
        n d seed)
    ~shrink:case_shrink
    QCheck.Gen.(
      oneofl kinds >>= fun kind ->
      int_range 1 24 >>= fun n ->
      oneofl [ 0.; 0.15; 0.3; 0.5 ] >>= fun d ->
      int_bound 1_000_000 >>= fun seed -> return (kind, n, d, seed))

let property ?(count = 100) name arb f = QCheck.Test.make ~count ~name arb f

(* CSR batch = legacy batch = incoming cut, on DAGs. *)
let dag_three_way =
  property "CSR = legacy = incoming cut (DAGs)" (case_arb [ `Dag ])
    (fun (kind, n, d, seed) ->
      let g = build_graph kind n d seed in
      let csr_v = MF.min_broadcast_flow g ~src:0 in
      let legacy_v = Legacy.min_broadcast_flow g ~src:0 in
      let cut = fst (Flowgraph.Topo.min_incoming_cut g ~src:0) in
      close "csr vs legacy" csr_v legacy_v
      && close "csr vs cut" csr_v cut
      && close "structured vs cut" (MF.broadcast_throughput g ~src:0) cut)

(* CSR = legacy on arbitrary digraphs (cyclic included), for the batch
   minimum and for a single-sink max-flow. *)
let digraph_two_way =
  property "CSR = legacy Dinic (digraphs)" (case_arb [ `Dag; `Digraph ])
    (fun (kind, n, d, seed) ->
      let g = build_graph kind n d seed in
      let csr_v = MF.min_broadcast_flow g ~src:0 in
      let legacy_v = Legacy.min_broadcast_flow g ~src:0 in
      close "batch minimum" csr_v legacy_v
      && (n = 1
         || close "single sink"
              (MF.max_flow g ~src:0 ~dst:(n - 1))
              (Legacy.max_flow g ~src:0 ~dst:(n - 1)))
      && close "structured" (MF.broadcast_throughput g ~src:0) legacy_v)

(* Identical achieves_rate verdicts at rates straddling the optimum. *)
let achieves_verdicts =
  property "achieves_rate verdicts identical" (case_arb [ `Dag; `Digraph ])
    (fun (kind, n, d, seed) ->
      let g = build_graph kind n d seed in
      let t = Legacy.min_broadcast_flow g ~src:0 in
      let rates =
        if t = infinity then [ 0.; 1.; 1e12 ]
        else if t <= 0. then [ 0.; 0.1; 1. ]
        else [ 0.; 0.5 *. t; 0.9 *. t; 1.1 *. t; 2. *. t ]
      in
      List.for_all
        (fun rate ->
          let csr = MF.achieves_rate g ~src:0 ~rate in
          let legacy = Legacy.achieves_rate g ~src:0 ~rate in
          if csr <> legacy then
            QCheck.Test.fail_reportf
              "verdicts differ at rate %g (t = %g): csr %b, legacy %b" rate t
              csr legacy
          else true)
        rates)

(* The repair path reports rate_after through the scheme's memoized
   report — the CSR structured fast path on acyclic overlays. The plain
   generic engine on the patched graph must agree. *)
let repair_rate_agrees_with_plain_flow =
  QCheck.Test.make ~count:40 ~name:"repair rate_after = plain max-flow"
    (QCheck.pair
       (Helpers.instance_arb ~max_open:10 ~max_guarded:6)
       QCheck.(int_range 0 1000))
    (fun (inst, pick) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6 && Platform.Instance.size inst > 2);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let node = 1 + (pick mod (Platform.Instance.size inst - 1)) in
      let leave, leave_stats = Broadcast.Repair.leave o ~node in
      let join, join_stats =
        Broadcast.Repair.join leave ~bandwidth:(float_of_int (1 + (pick mod 50)))
          ~cls:Platform.Instance.Open
      in
      List.for_all
        (fun (what, o', (stats : Broadcast.Repair.stats)) ->
          let plain =
            MF.min_broadcast_flow (Broadcast.Overlay.graph o') ~src:0
          in
          close (what ^ ": fast path vs plain Dinic")
            stats.Broadcast.Repair.rate_after plain)
        [ ("leave", leave, leave_stats); ("join", join, join_stats) ])

let suites =
  [
    ( "csr-differential",
      List.map QCheck_alcotest.to_alcotest
        [
          dag_three_way; digraph_two_way; achieves_verdicts;
          repair_rate_agrees_with_plain_flow;
        ] );
  ]
