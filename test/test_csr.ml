(* Unit tests for the CSR snapshot layer: faithfulness to the source
   graph, canonical iteration order, the stack-safe traversals, and the
   deterministic Kahn tie-breaking contract shared with Topo.sort. *)

module G = Flowgraph.Graph
module Csr = Flowgraph.Csr

let close ?(tol = 1e-12) what a b =
  if Float.abs (a -. b) > tol *. Float.max 1. (Float.abs b) then
    Alcotest.failf "%s: %g vs %g" what a b

let random_graph rng nodes density =
  let g = G.create nodes in
  for i = 0 to nodes - 1 do
    for j = 0 to nodes - 1 do
      if i <> j && Prng.Splitmix.next_float rng < density then
        G.add_edge g ~src:i ~dst:j (0.1 +. (9.9 *. Prng.Splitmix.next_float rng))
    done
  done;
  g

let test_of_graph_faithful () =
  let rng = Prng.Splitmix.create 201L in
  for _ = 1 to 30 do
    let n = 1 + int_of_float (12. *. Prng.Splitmix.next_float rng) in
    let g = random_graph rng n 0.4 in
    let c = Csr.of_graph g in
    Alcotest.(check int) "node count" (G.node_count g) (Csr.node_count c);
    Alcotest.(check int) "edge count" (G.edge_count g) (Csr.edge_count c);
    for v = 0 to n - 1 do
      Alcotest.(check int) "out degree" (G.out_degree g v) (Csr.out_degree c v);
      Alcotest.(check int) "in degree"
        (List.length (G.in_edges g v))
        (Csr.in_degree c v);
      close "out weight" (Csr.out_weight c v) (G.out_weight g v);
      close "in weight" (Csr.in_weight c v) (G.in_weight g v)
    done;
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then
          close "edge weight" (Csr.edge_weight c ~src:u ~dst:v)
            (G.edge_weight g ~src:u ~dst:v)
      done
    done
  done

let test_canonical_order () =
  let rng = Prng.Splitmix.create 202L in
  for _ = 1 to 10 do
    let g = random_graph rng 10 0.5 in
    let c = Csr.of_graph g in
    let last = ref (-1, -1) in
    Csr.iter_edges
      (fun ~src ~dst _w ->
        if (src, dst) <= !last then
          Alcotest.failf "iteration not in (src, dst) order at %d->%d" src dst;
        last := (src, dst))
      c
  done

let test_snapshot_frozen () =
  let g = G.create 3 in
  G.add_edge g ~src:0 ~dst:1 2.;
  let c = Csr.of_graph g in
  G.add_edge g ~src:0 ~dst:1 1.;
  G.add_edge g ~src:1 ~dst:2 5.;
  close "weight frozen" (Csr.edge_weight c ~src:0 ~dst:1) 2.;
  Alcotest.(check int) "edge count frozen" 1 (Csr.edge_count c)

let test_topo_order_deterministic () =
  (* Same graph as Topo.sort's unit test: ties break on smallest index. *)
  let g = G.create 4 in
  G.add_edge g ~src:2 ~dst:1 1.;
  G.add_edge g ~src:0 ~dst:2 1.;
  G.add_edge g ~src:1 ~dst:3 1.;
  (match Csr.topo_order (Csr.of_graph g) with
  | None -> Alcotest.fail "DAG reported cyclic"
  | Some order -> Alcotest.(check (array int)) "order" [| 0; 2; 1; 3 |] order);
  (match Flowgraph.Topo.sort g with
  | None -> Alcotest.fail "Topo.sort reported cyclic"
  | Some order ->
    Alcotest.(check (array int)) "Topo.sort agrees" [| 0; 2; 1; 3 |] order);
  G.add_edge g ~src:3 ~dst:0 1.;
  Alcotest.(check bool) "cyclic" true (Csr.topo_order (Csr.of_graph g) = None)

let test_acyclicity_agreement () =
  let rng = Prng.Splitmix.create 203L in
  for _ = 1 to 40 do
    let g = random_graph rng 8 0.3 in
    let c = Csr.of_graph g in
    let by_order = Csr.topo_order c <> None in
    Alcotest.(check bool) "is_acyclic = topo_order" by_order (Csr.is_acyclic c);
    Alcotest.(check bool) "Topo.is_acyclic agrees" by_order
      (Flowgraph.Topo.is_acyclic g)
  done

let test_min_incoming_cut () =
  let rng = Prng.Splitmix.create 204L in
  for _ = 1 to 20 do
    let g = random_graph rng 9 0.4 in
    let c = Csr.of_graph g in
    let w, v = Csr.min_incoming_cut c ~src:0 in
    let best = ref infinity in
    for u = 1 to 8 do
      best := Float.min !best (G.in_weight g u)
    done;
    close "cut value" w !best;
    close "argmin consistent" (G.in_weight g v) w;
    Alcotest.(check bool) "argmin not src" true (v <> 0)
  done;
  (* Single node: (infinity, src). *)
  let one = Csr.of_graph (G.create 1) in
  Alcotest.(check bool) "single node" true
    (Csr.min_incoming_cut one ~src:0 = (infinity, 0))

let test_empty_and_fringe () =
  let empty = Csr.of_graph (G.create 5) in
  Alcotest.(check int) "no edges" 0 (Csr.edge_count empty);
  Alcotest.(check bool) "empty acyclic" true (Csr.is_acyclic empty);
  Alcotest.(check bool) "empty order" true
    (Csr.topo_order empty = Some [| 0; 1; 2; 3; 4 |]);
  Alcotest.(check bool) "no cycle" true (Csr.find_cycle empty = None);
  close "cut of empty" (fst (Csr.min_incoming_cut empty ~src:0)) 0.;
  let zero = Csr.of_graph (G.create 0) in
  Alcotest.(check int) "zero nodes" 0 (Csr.node_count zero);
  Alcotest.(check bool) "zero-node acyclic" true (Csr.is_acyclic zero)

(* Deep structures: the traversals and the blocking-flow DFS must not
   recurse. n = 20000 would already overflow a recursive DFS under small
   stacks; the CI smoke test pushes this to 50000 under ulimit -s. *)
let test_deep_structures () =
  let n = 20_000 in
  let g = G.create n in
  for i = 0 to n - 2 do
    G.add_edge g ~src:i ~dst:(i + 1) (1. +. float_of_int (i mod 7))
  done;
  let c = Csr.of_graph g in
  Alcotest.(check bool) "deep path acyclic" true (Csr.is_acyclic c);
  (match Csr.topo_order c with
  | None -> Alcotest.fail "deep path reported cyclic"
  | Some order ->
    Alcotest.(check int) "order starts at 0" 0 order.(0);
    Alcotest.(check int) "order ends at n-1" (n - 1) order.(n - 1));
  close "deep path max-flow"
    (Flowgraph.Maxflow.max_flow g ~src:0 ~dst:(n - 1))
    1.;
  close "deep structured throughput"
    (Flowgraph.Maxflow.broadcast_throughput g ~src:0)
    1.;
  (* Close the ring: a cycle of length n. *)
  G.add_edge g ~src:(n - 1) ~dst:0 1.;
  let c' = Csr.of_graph g in
  Alcotest.(check bool) "ring cyclic" false (Csr.is_acyclic c');
  (match Csr.find_cycle c' with
  | None -> Alcotest.fail "ring cycle missed"
  | Some cycle -> Alcotest.(check int) "full ring" n (List.length cycle));
  close "deep cyclic max-flow"
    (Flowgraph.Maxflow.max_flow g ~src:0 ~dst:(n - 1))
    1.

(* patch_rows: replacing a few rows must be bit-for-bit identical to a
   fresh freeze of the mutated graph — the invariant the repair layer's
   byte-deterministic fast path (Scheme.apply_delta) rests on. Structural
   equality on the whole record compares every array, floats included. *)
let test_patch_rows_matches_of_graph () =
  let rng = Prng.Splitmix.create 203L in
  for _ = 1 to 30 do
    let n = 3 + int_of_float (10. *. Prng.Splitmix.next_float rng) in
    let g = random_graph rng n 0.4 in
    let base = Csr.of_graph g in
    let rows =
      List.init n (fun v -> v)
      |> List.filter (fun _ -> Prng.Splitmix.next_float rng < 0.4)
    in
    let rows = if rows = [] then [ 0 ] else rows in
    List.iter
      (fun u ->
        (* wipe the row, then grow a fresh random out-neighbourhood *)
        List.iter (fun (d, _) -> G.set_edge g ~src:u ~dst:d 0.) (G.out_edges g u);
        for d = 0 to n - 1 do
          if d <> u && Prng.Splitmix.next_float rng < 0.3 then
            G.set_edge g ~src:u ~dst:d (0.1 +. Prng.Splitmix.next_float rng)
        done)
      rows;
    let edges =
      List.map
        (fun u ->
          G.out_edges g u
          |> List.sort (fun (a, _) (b, _) -> compare a b)
          |> Array.of_list)
        rows
    in
    let patched =
      Csr.patch_rows base ~rows:(Array.of_list rows)
        ~edges:(Array.of_list edges)
    in
    Alcotest.(check bool) "patched snapshot == fresh freeze, bit for bit" true
      (patched = Csr.of_graph g)
  done

let test_patch_rows_appends_nodes () =
  let rng = Prng.Splitmix.create 204L in
  let g = random_graph rng 8 0.4 in
  let base = Csr.of_graph g in
  (* A join-shaped patch: newcomer 8 fed by node 0 — the feeder row and
     the (empty) newcomer row are the disturbed rows. *)
  let feeder =
    (G.out_edges g 0 |> List.sort (fun (a, _) (b, _) -> compare a b))
    @ [ (8, 2.5) ]
    |> Array.of_list
  in
  let patched = Csr.patch_rows ~n:9 base ~rows:[| 0; 8 |] ~edges:[| feeder; [||] |] in
  let g' = G.create 9 in
  G.iter_edges (fun ~src ~dst w -> G.add_edge g' ~src ~dst w) g;
  G.add_edge g' ~src:0 ~dst:8 2.5;
  Alcotest.(check bool) "appended node == fresh freeze, bit for bit" true
    (patched = Csr.of_graph g')

let test_patch_rows_validation () =
  let g = random_graph (Prng.Splitmix.create 205L) 6 0.5 in
  let base = Csr.of_graph g in
  let expect what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect "shrinking n" (fun () ->
      Csr.patch_rows ~n:5 base ~rows:[||] ~edges:[||]);
  expect "rows/edges length mismatch" (fun () ->
      Csr.patch_rows base ~rows:[| 1 |] ~edges:[||]);
  expect "row out of range" (fun () ->
      Csr.patch_rows base ~rows:[| 6 |] ~edges:[| [||] |]);
  expect "rows not strictly increasing" (fun () ->
      Csr.patch_rows base ~rows:[| 2; 2 |] ~edges:[| [||]; [||] |]);
  expect "unsorted row" (fun () ->
      Csr.patch_rows base ~rows:[| 0 |] ~edges:[| [| (2, 1.); (1, 1.) |] |]);
  expect "self loop" (fun () ->
      Csr.patch_rows base ~rows:[| 0 |] ~edges:[| [| (0, 1.) |] |]);
  expect "nonpositive weight" (fun () ->
      Csr.patch_rows base ~rows:[| 0 |] ~edges:[| [| (1, 0.) |] |]);
  expect "appended row left unpatched" (fun () ->
      Csr.patch_rows ~n:8 base ~rows:[| 6 |] ~edges:[| [||] |])

(* remap: a strictly increasing renumbering (departures dropped, gaps
   left for newcomers) must be bit-for-bit the fresh freeze of the
   renumbered graph. *)
let test_remap_matches_of_graph () =
  let rng = Prng.Splitmix.create 206L in
  for _ = 1 to 30 do
    let n = 3 + int_of_float (10. *. Prng.Splitmix.next_float rng) in
    let g = random_graph rng n 0.4 in
    let next = ref 0 in
    let map =
      Array.init n (fun _ ->
          let r = Prng.Splitmix.next_float rng in
          if r < 0.2 then -1
          else begin
            (* sometimes skip an id: a newcomer's slot *)
            if r > 0.85 then incr next;
            let v = !next in
            incr next;
            v
          end)
    in
    let n' = !next + 1 in
    let g' = G.create n' in
    G.iter_edges
      (fun ~src ~dst w ->
        if map.(src) >= 0 && map.(dst) >= 0 then
          G.set_edge g' ~src:map.(src) ~dst:map.(dst) w)
      g;
    Alcotest.(check bool) "remapped snapshot == fresh freeze, bit for bit" true
      (Csr.remap ~n:n' (Csr.of_graph g) ~map = Csr.of_graph g')
  done

let test_remap_validation () =
  let base = Csr.of_graph (random_graph (Prng.Splitmix.create 207L) 5 0.5) in
  let expect what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  expect "map length mismatch" (fun () -> Csr.remap ~n:5 base ~map:[| 0; 1 |]);
  expect "decreasing map" (fun () ->
      Csr.remap ~n:5 base ~map:[| 0; 2; 1; 3; 4 |]);
  expect "repeated id" (fun () -> Csr.remap ~n:5 base ~map:[| 0; 1; 1; 3; 4 |]);
  expect "n too small" (fun () -> Csr.remap ~n:4 base ~map:[| 0; 1; 2; 3; 4 |])

let suites =
  [
    ( "csr",
      [
        Alcotest.test_case "of_graph faithful" `Quick test_of_graph_faithful;
        Alcotest.test_case "canonical iteration order" `Quick
          test_canonical_order;
        Alcotest.test_case "snapshot frozen at build" `Quick
          test_snapshot_frozen;
        Alcotest.test_case "topo_order deterministic ties" `Quick
          test_topo_order_deterministic;
        Alcotest.test_case "acyclicity agreement" `Quick
          test_acyclicity_agreement;
        Alcotest.test_case "min_incoming_cut" `Quick test_min_incoming_cut;
        Alcotest.test_case "empty and fringe snapshots" `Quick
          test_empty_and_fringe;
        Alcotest.test_case "deep structures (stack safety)" `Quick
          test_deep_structures;
        Alcotest.test_case "patch_rows == fresh freeze" `Quick
          test_patch_rows_matches_of_graph;
        Alcotest.test_case "patch_rows appends nodes" `Quick
          test_patch_rows_appends_nodes;
        Alcotest.test_case "patch_rows validation" `Quick
          test_patch_rows_validation;
        Alcotest.test_case "remap == fresh freeze" `Quick
          test_remap_matches_of_graph;
        Alcotest.test_case "remap validation" `Quick test_remap_validation;
      ] );
  ]
