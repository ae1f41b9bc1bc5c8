(* Tests for the Overlay bundle and the churn-repair operations. *)

open Platform

let build_fig1 () = Broadcast.Overlay.build Instance.fig1

let test_overlay_build () =
  let o = build_fig1 () in
  Helpers.close ~tol:1e-6 "rate ~ 4" (Broadcast.Overlay.rate o) 4.;
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o);
  Helpers.close ~tol:1e-6 "verified rate" (Broadcast.Overlay.verified_rate o) 4.;
  Alcotest.(check (array int)) "order = sigma 031425" [| 0; 3; 1; 4; 2; 5 |]
    o.Broadcast.Overlay.order

let test_overlay_forced_rate () =
  let o = Broadcast.Overlay.build ~rate:3. Instance.fig1 in
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o);
  Alcotest.(check bool) "verified >= 3" true
    (Broadcast.Overlay.verified_rate o >= 3. -. 1e-6);
  Alcotest.check_raises "infeasible rate"
    (Invalid_argument "Overlay.build: rate is not feasible") (fun () ->
      ignore (Broadcast.Overlay.build ~rate:5. Instance.fig1))

let test_edge_distance () =
  let module G = Flowgraph.Graph in
  let a = G.create 3 and b = G.create 3 in
  G.add_edge a ~src:0 ~dst:1 1.;
  G.add_edge a ~src:0 ~dst:2 1.;
  G.add_edge b ~src:0 ~dst:1 1.;
  G.add_edge b ~src:1 ~dst:2 1.;
  (* 0->2 removed, 1->2 added. *)
  Alcotest.(check int) "two changes" 2 (Broadcast.Overlay.edge_distance a b);
  Alcotest.(check int) "self distance" 0 (Broadcast.Overlay.edge_distance a a);
  G.set_edge b ~src:0 ~dst:1 2.;
  Alcotest.(check int) "reweight counts" 3 (Broadcast.Overlay.edge_distance a b)

let overlay_with_headroom inst headroom =
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let test_leave_basic () =
  let o = overlay_with_headroom Instance.fig1 0.75 in
  (* Remove the last guarded node (C5): it feeds nobody, clean case. *)
  let o', stats = Broadcast.Repair.leave o ~node:5 in
  Alcotest.(check int) "one fewer node" 5
    (Instance.size (Broadcast.Overlay.instance o'));
  Alcotest.(check int) "m decremented" 2
    (Broadcast.Overlay.instance o').Instance.m;
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "rate kept" true
    (stats.Broadcast.Repair.rate_after >= Broadcast.Overlay.rate o -. 1e-6);
  Alcotest.(check bool) "patch cheaper than rebuild" true
    (stats.Broadcast.Repair.patch_edges <= (Lazy.force stats.Broadcast.Repair.rebuild_edges))

let test_leave_open_node () =
  let o = overlay_with_headroom Instance.fig1 0.6 in
  let o', stats = Broadcast.Repair.leave o ~node:1 in
  Alcotest.(check int) "n decremented" 1
    (Broadcast.Overlay.instance o').Instance.n;
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check bool) "optimal recomputed" true
    (stats.Broadcast.Repair.optimal_after > 0.)

let test_leave_validation () =
  let o = build_fig1 () in
  (try
     ignore (Broadcast.Repair.leave o ~node:0);
     Alcotest.fail "source removal accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Broadcast.Repair.leave o ~node:6);
    Alcotest.fail "out of range accepted"
  with Invalid_argument _ -> ()

let test_join_open () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let o', stats = Broadcast.Repair.join o ~bandwidth:4.5 ~cls:Instance.Open in
  let inst' = Broadcast.Overlay.instance o' in
  Alcotest.(check int) "n incremented" 3 inst'.Instance.n;
  Alcotest.(check bool) "still sorted" true (Instance.sorted inst');
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  (* 4.5 slots between the 5s and the... position 3 in open class. *)
  Helpers.close "inserted bandwidth" inst'.Instance.bandwidth.(3) 4.5;
  Alcotest.(check bool) "newcomer fed at full target" true
    (stats.Broadcast.Repair.rate_after >= Broadcast.Overlay.rate o -. 1e-6)

let test_join_guarded () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let o', _stats = Broadcast.Repair.join o ~bandwidth:2. ~cls:Instance.Guarded in
  let inst' = Broadcast.Overlay.instance o' in
  Alcotest.(check int) "m incremented" 4 inst'.Instance.m;
  Alcotest.(check bool) "still sorted" true (Instance.sorted inst');
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  (* The newcomer (a guarded node) must be fed by open nodes only. *)
  let p = Broadcast.Overlay.positions o' in
  let newcomer =
    o'.Broadcast.Overlay.order.(Array.length o'.Broadcast.Overlay.order - 1)
  in
  ignore p;
  List.iter
    (fun (u, _) ->
      Alcotest.(check bool) "open feeder" true (Instance.is_open inst' u))
    (Flowgraph.Graph.in_edges (Broadcast.Overlay.graph o') newcomer)

let test_join_validation () =
  let o = build_fig1 () in
  try
    ignore (Broadcast.Repair.join o ~bandwidth:(-1.) ~cls:Instance.Open);
    Alcotest.fail "negative bandwidth accepted"
  with Invalid_argument _ -> ()

let test_rebuild () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let o', stats = Broadcast.Repair.rebuild o in
  Alcotest.(check bool) "rebuild reaches optimum" true
    (stats.Broadcast.Repair.rate_after >= stats.Broadcast.Repair.optimal_after -. 1e-6);
  Alcotest.(check bool) "well formed" true (Broadcast.Overlay.well_formed o');
  Alcotest.(check int) "patch = rebuild cost" stats.Broadcast.Repair.patch_edges
    (Lazy.force stats.Broadcast.Repair.rebuild_edges)

(* Property: with headroom, any single departure is absorbed — the patched
   overlay stays well-formed and every remaining node keeps receiving at
   least SOME rate; with generous headroom the full target survives. *)
let prop_leave_well_formed =
  QCheck.Test.make ~name:"leave keeps overlays well-formed" ~count:40
    (QCheck.pair (Helpers.instance_arb ~max_open:10 ~max_guarded:6) QCheck.(int_range 0 1000))
    (fun (inst, pick) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6 && Instance.size inst > 2);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let node = 1 + (pick mod (Instance.size inst - 1)) in
      let o', stats = Broadcast.Repair.leave o ~node in
      Broadcast.Overlay.well_formed o'
      && stats.Broadcast.Repair.rate_after >= 0.
      && stats.Broadcast.Repair.patch_edges >= 0)

let prop_join_keeps_target =
  QCheck.Test.make ~name:"join feeds the newcomer without hurting others" ~count:40
    (QCheck.triple
       (Helpers.instance_arb ~max_open:10 ~max_guarded:6)
       (QCheck.float_range 0.5 100.)
       QCheck.bool)
    (fun (inst, bandwidth, open_cls) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let cls = if open_cls then Instance.Open else Instance.Guarded in
      let o', stats = Broadcast.Repair.join o ~bandwidth ~cls in
      (* Existing nodes keep their full reception: only edges toward the
         newcomer are added, so the rate cannot drop below the target
         unless the newcomer itself is starved. *)
      Broadcast.Overlay.well_formed o'
      && stats.Broadcast.Repair.rate_after <= Broadcast.Overlay.rate o +. 1e-6)

(* Structural safety of a leave followed by a join, on the resulting
   Scheme artifact itself: the firewall holds, no sender exceeds its
   bandwidth, the patched scheme stays acyclic, and provenance records
   the repair. *)
let prop_leave_join_structure =
  QCheck.Test.make ~name:"leave then join keeps schemes structurally sound"
    ~count:40
    (QCheck.triple
       (Helpers.instance_arb ~max_open:10 ~max_guarded:6)
       QCheck.(int_range 0 1000)
       (QCheck.pair (QCheck.float_range 0.5 50.) QCheck.bool))
    (fun (inst, pick, (bandwidth, open_cls)) ->
      let t, _ = Broadcast.Greedy.optimal_acyclic inst in
      QCheck.assume (t > 1e-6 && Instance.size inst > 2);
      let o = Broadcast.Overlay.build ~rate:(t *. 0.7) inst in
      let node = 1 + (pick mod (Instance.size inst - 1)) in
      let o1, _ = Broadcast.Repair.leave o ~node in
      let cls = if open_cls then Instance.Open else Instance.Guarded in
      let o2, _ = Broadcast.Repair.join o1 ~bandwidth ~cls in
      let s = Broadcast.Overlay.scheme o2 in
      let inst' = Broadcast.Scheme.instance s in
      let g = Broadcast.Scheme.graph s in
      let b = inst'.Instance.bandwidth in
      Flowgraph.Graph.iter_edges
        (fun ~src ~dst _ ->
          if Instance.is_guarded inst' src && Instance.is_guarded inst' dst then
            Alcotest.failf "guarded edge %d->%d after repair" src dst)
        g;
      for v = 0 to Instance.size inst' - 1 do
        if not (Broadcast.Util.fle ~eps:1e-6 (Flowgraph.Graph.out_weight g v) b.(v))
        then
          Alcotest.failf "node %d sends %g > b = %g after repair" v
            (Flowgraph.Graph.out_weight g v)
            b.(v)
      done;
      (match (Broadcast.Scheme.provenance s).Broadcast.Scheme.algorithm with
      | Broadcast.Scheme.Repaired _ -> ()
      | a ->
        Alcotest.failf "provenance not Repaired: %s"
          (Broadcast.Scheme.algorithm_name a));
      Broadcast.Scheme.is_acyclic s)

(* A leave followed by re-joining an identical node restores feasibility
   of the original target. *)
let test_leave_join_roundtrip () =
  let o = overlay_with_headroom Instance.fig1 0.7 in
  let b5 = Instance.fig1.Instance.bandwidth.(5) in
  let o1, _ = Broadcast.Repair.leave o ~node:5 in
  let o2, stats = Broadcast.Repair.join o1 ~bandwidth:b5 ~cls:Instance.Guarded in
  Alcotest.(check int) "size restored" 6
    (Instance.size (Broadcast.Overlay.instance o2));
  Alcotest.(check bool) "instance equal to original" true
    (Instance.equal (Broadcast.Overlay.instance o2) Instance.fig1);
  Alcotest.(check bool) "target rate kept" true
    (stats.Broadcast.Repair.rate_after >= Broadcast.Overlay.rate o -. 1e-6)

(* {2 Differential oracle for the reference numbers}

   [Oracle.outcome] is the accounting [Repair] used to do after every
   operation, restated: project the pre-event graph through the node map
   (dropping the casualties' edges, which count as churn), diff it
   against the patched graph and against a cold rebuild's, and take the
   optimum from that cold [Overlay.build] — 0 when the build raises. The
   fast path (solver optimum, edit-log churn, lazy rebuild distance) must
   agree with it exactly: floats bit for bit, counts equal. *)
module Oracle = struct
  module G = Flowgraph.Graph

  let edge_distance a b =
    let eps = 1e-9 in
    let differs w w' = Float.abs (w -. w') > eps *. Float.max 1. (Float.max w w') in
    let count = ref 0 in
    G.iter_edges
      (fun ~src ~dst w -> if differs w (G.edge_weight b ~src ~dst) then incr count)
      a;
    G.iter_edges
      (fun ~src ~dst _w -> if G.edge_weight a ~src ~dst = 0. then incr count)
      b;
    !count

  type outcome = { patch_edges : int; optimal_after : float; rebuild_edges : int }

  let outcome o o' ~node_map =
    let size' = Instance.size (Broadcast.Overlay.instance o') in
    let before = G.create size' in
    let dropped = ref 0 in
    G.iter_edges
      (fun ~src ~dst w ->
        let s = node_map.(src) and d = node_map.(dst) in
        if s < 0 || d < 0 then incr dropped else G.set_edge before ~src:s ~dst:d w)
      (Broadcast.Overlay.graph o);
    let patch_edges =
      !dropped + edge_distance before (Broadcast.Overlay.graph o')
    in
    match Broadcast.Overlay.build (Broadcast.Overlay.instance o') with
    | rebuilt ->
      {
        patch_edges;
        optimal_after = Broadcast.Overlay.rate rebuilt;
        rebuild_edges =
          !dropped + edge_distance before (Broadcast.Overlay.graph rebuilt);
      }
    | exception Invalid_argument _ ->
      { patch_edges; optimal_after = 0.; rebuild_edges = patch_edges }
end

type op =
  | Join of float * bool
  | Join_batch of (float * bool) list
  | Leave of int
  | Leave_batch of int list
  | Degrade of int * float
  | Restore of int * float

let cls_of guarded = if guarded then Instance.Guarded else Instance.Open

let print_op = function
  | Join (b, g) -> Printf.sprintf "join %h%s" b (if g then " G" else "")
  | Join_batch l ->
    "join_batch ["
    ^ String.concat "; "
        (List.map (fun (b, g) -> Printf.sprintf "%h%s" b (if g then " G" else "")) l)
    ^ "]"
  | Leave p -> Printf.sprintf "leave %d" p
  | Leave_batch l -> "leave_batch [" ^ String.concat "; " (List.map string_of_int l) ^ "]"
  | Degrade (p, f) -> Printf.sprintf "degrade %d x%h" p f
  | Restore (p, f) -> Printf.sprintf "restore %d /%h" p f

(* Instances in the three shapes where the fast path is most likely to
   part from the cold build: tiny ones, guarded-heavy ones (the firewall
   drives Algorithm 2's choices), and near-zero bandwidths, where the
   solver's absolute tolerance and the construction's relative cut
   disagree about feasibility. *)
let oracle_instance_gen =
  let open QCheck.Gen in
  let make bandwidth ~n ~m =
    fst (Instance.normalize (Instance.create ~bandwidth ~n ~m ()))
  in
  let tiny_bw =
    oneof
      [
        Helpers.bandwidth_gen;
        map (fun x -> 1e-12 *. x) (float_bound_inclusive 1.);
        oneofl [ 0.; 1e-300; 5e-10; 1e-9 ];
      ]
  in
  oneof
    [
      Helpers.instance_gen ~max_open:3 ~max_guarded:2;
      ( int_range 1 3 >>= fun n ->
        int_range 3 8 >>= fun m ->
        array_repeat (1 + n + m) Helpers.bandwidth_gen >|= fun bandwidth ->
        make bandwidth ~n ~m );
      ( int_range 1 5 >>= fun n ->
        int_range 0 4 >>= fun m ->
        array_repeat (1 + n + m) tiny_bw >>= fun bandwidth ->
        oneofl [ 1.; 1e-6; 1e-9; 1e-12 ] >|= fun scale ->
        make (Array.map (fun b -> b *. scale) bandwidth) ~n ~m );
    ]

let op_gen =
  let open QCheck.Gen in
  let arrival =
    pair
      (oneof
         [
           Helpers.bandwidth_gen;
           map (fun x -> 1e-10 *. x) (float_bound_inclusive 1.);
           return 0.;
         ])
      (map (fun x -> x < 0.35) (float_bound_inclusive 1.))
  in
  let factor = oneof [ float_range 0.05 1.; oneofl [ 1.; 0.5; 1e-9 ] ] in
  frequency
    [
      (3, map (fun (b, g) -> Join (b, g)) arrival);
      (2, map (fun l -> Join_batch l) (list_size (int_range 1 4) arrival));
      (3, map (fun p -> Leave p) (int_bound 1000));
      (2, map (fun l -> Leave_batch l) (list_size (int_range 1 4) (int_bound 1000)));
      (3, map2 (fun p f -> Degrade (p, f)) (int_bound 1000) factor);
      (3, map2 (fun p f -> Restore (p, f)) (int_bound 1000) factor);
    ]

let scenario_arb =
  QCheck.make
    ~print:(fun (inst, headroom, ops) ->
      Printf.sprintf "%s / headroom %g / %s" (Instance.to_string inst) headroom
        (String.concat ", " (List.map print_op ops)))
    QCheck.Gen.(
      triple oracle_instance_gen
        (oneofl [ 0.6; 0.9; 1. ])
        (list_size (int_range 1 8) op_gen))

(* The starting overlay of a scenario, or [None] where the instance has no
   buildable acyclic scheme at all. *)
let start_overlay inst headroom =
  match Broadcast.Overlay.optimal_rate inst with
  | None -> None
  | Some rate -> (
    match Broadcast.Overlay.build ~rate:(rate *. headroom) inst with
    | o -> Some o
    | exception Invalid_argument _ -> None)

(* One operation as the churn engine resolves it (never the source for
   membership changes, at least three nodes kept), through [Repair]. *)
let apply_op o op =
  let inst = Broadcast.Overlay.instance o in
  let size = Instance.size inst in
  let pick p = 1 + (p mod (size - 1)) in
  let b v = inst.Instance.bandwidth.(v) in
  match op with
  | Join (bandwidth, g) ->
    Some (Broadcast.Repair.join o ~bandwidth ~cls:(cls_of g))
  | Join_batch arrivals ->
    Some
      (Broadcast.Repair.join_batch o
         ~arrivals:(List.map (fun (bw, g) -> (bw, cls_of g)) arrivals))
  | Leave p -> if size <= 3 then None else Some (Broadcast.Repair.leave o ~node:(pick p))
  | Leave_batch ps -> (
    let nodes = List.sort_uniq compare (List.map pick ps) in
    let nodes = List.filteri (fun i _ -> i < size - 3) nodes in
    match nodes with
    | [] -> None
    | nodes -> Some (Broadcast.Repair.leave_batch o ~nodes))
  | Degrade (p, f) ->
    let v = p mod size in
    let bandwidth = b v *. f in
    if v = 0 && bandwidth <= 0. then None
    else Some (Broadcast.Repair.degrade o ~node:v ~bandwidth)
  | Restore (p, f) ->
    let v = p mod size in
    Some (Broadcast.Repair.restore o ~node:v ~bandwidth:(b v /. f))

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The oracle's view of one operation; a flash crowd is the fold of
   per-arrival oracles (churn summed, the rest from the last arrival). *)
let oracle_of o op =
  match op with
  | Join_batch arrivals ->
    let _, acc =
      List.fold_left
        (fun (o, acc) (bandwidth, g) ->
          let o', s = Broadcast.Repair.join o ~bandwidth ~cls:(cls_of g) in
          let r = Oracle.outcome o o' ~node_map:s.Broadcast.Repair.node_map in
          ( o',
            match acc with
            | None -> Some r
            | Some (prev : Oracle.outcome) ->
              Some { r with Oracle.patch_edges = prev.patch_edges + r.patch_edges } ))
        (o, None) arrivals
    in
    Option.get acc
  | _ -> (
    match apply_op o op with
    | Some (o', s) -> Oracle.outcome o o' ~node_map:s.Broadcast.Repair.node_map
    | None -> assert false)

let prop_fast_path_matches_oracle =
  QCheck.Test.make ~name:"reference numbers match the cold-build oracle"
    ~count:300 scenario_arb (fun (inst, headroom, ops) ->
      match start_overlay inst headroom with
      | None -> QCheck.assume_fail ()
      | Some o ->
        ignore
          (List.fold_left
             (fun o op ->
               match apply_op o op with
               | None -> o
               | Some (o', (s : Broadcast.Repair.stats)) ->
                 let want = oracle_of o op in
                 if not (same_float s.optimal_after want.Oracle.optimal_after) then
                   QCheck.Test.fail_reportf "%s: optimal_after %h, oracle %h"
                     (print_op op) s.optimal_after want.optimal_after;
                 if s.patch_edges <> want.patch_edges then
                   QCheck.Test.fail_reportf "%s: patch_edges %d, oracle %d"
                     (print_op op) s.patch_edges want.patch_edges;
                 if Lazy.force s.rebuild_edges <> want.rebuild_edges then
                   QCheck.Test.fail_reportf "%s: rebuild_edges %d, oracle %d"
                     (print_op op) (Lazy.force s.rebuild_edges) want.rebuild_edges;
                 o')
             o ops);
        true)

(* [join_batch] is the fold of [join]: same scheme bytes, composed map
   and delta, summed churn, last arrival's reference numbers. *)
let prop_join_batch_is_fold =
  QCheck.Test.make ~name:"join_batch equals the fold of join" ~count:150
    (QCheck.make
       ~print:(fun (inst, ops) ->
         Printf.sprintf "%s / %s" (Instance.to_string inst)
           (String.concat ", " (List.map print_op ops)))
       QCheck.Gen.(
         pair oracle_instance_gen
           (list_size (int_range 1 6)
              (map (fun (b, g) -> Join (b, g))
                 (pair Helpers.bandwidth_gen bool)))))
    (fun (inst, joins) ->
      match start_overlay inst 0.8 with
      | None -> QCheck.assume_fail ()
      | Some o ->
        let arrivals =
          List.map (function Join (b, g) -> (b, cls_of g) | _ -> assert false) joins
        in
        let batch_o, (bs : Broadcast.Repair.stats) =
          Broadcast.Repair.join_batch o ~arrivals
        in
        let fold_o, fold_stats, edges, map =
          List.fold_left
            (fun (o, acc, edges, map) (bandwidth, cls) ->
              let o', (s : Broadcast.Repair.stats) =
                Broadcast.Repair.join o ~bandwidth ~cls
              in
              let acc =
                match acc with
                | None -> s
                | Some (prev : Broadcast.Repair.stats) ->
                  {
                    s with
                    Broadcast.Repair.delta =
                      Broadcast.Repair.compose_delta prev.Broadcast.Repair.delta
                        ~map:s.Broadcast.Repair.node_map s.Broadcast.Repair.delta;
                  }
              in
              let map =
                match map with
                | None -> s.node_map
                | Some m -> Array.map (fun v -> if v < 0 then -1 else s.node_map.(v)) m
              in
              (o', Some acc, edges + s.patch_edges, Some map))
            (o, None, 0, None) arrivals
        in
        let fs = Option.get fold_stats in
        Broadcast.Scheme.to_json (Broadcast.Overlay.scheme batch_o)
        = Broadcast.Scheme.to_json (Broadcast.Overlay.scheme fold_o)
        && Broadcast.Overlay.order batch_o = Broadcast.Overlay.order fold_o
        && bs.node_map = Option.get map
        && bs.delta = fs.delta
        && bs.patch_edges = edges
        && same_float bs.optimal_after fs.optimal_after
        && same_float bs.rate_after fs.rate_after
        && bs.starved = fs.starved
        && Lazy.force bs.rebuild_edges = Lazy.force fs.rebuild_edges)

(* A join or leave renumbers monotonically; patching the base snapshot
   through that map must give exactly the artifact [Scheme.create] gives
   for the same post-event graph. *)
let prop_renumbering_delta_matches_create =
  QCheck.Test.make ~name:"apply_delta on a renumbering delta equals create"
    ~count:150
    (QCheck.make
       ~print:(fun (inst, op) ->
         Printf.sprintf "%s / %s" (Instance.to_string inst) (print_op op))
       QCheck.Gen.(
         pair oracle_instance_gen
           (oneof
              [
                map (fun (b, g) -> Join (b, g)) (pair Helpers.bandwidth_gen bool);
                map (fun p -> Leave p) (int_bound 1000);
                map (fun l -> Leave_batch l) (list_size (int_range 1 3) (int_bound 1000));
              ])))
    (fun (inst, op) ->
      match start_overlay inst 0.8 with
      | None -> QCheck.assume_fail ()
      | Some o -> (
        match apply_op o op with
        | None -> QCheck.assume_fail ()
        | Some (o', (s : Broadcast.Repair.stats)) ->
          let base = Broadcast.Overlay.scheme o in
          let s' = Broadcast.Overlay.scheme o' in
          let provenance = Broadcast.Scheme.provenance s' in
          let inst' = Broadcast.Scheme.instance s' in
          let g = Broadcast.Scheme.graph s' in
          let patched =
            Broadcast.Scheme.apply_delta ~node_map:s.node_map ~base ~provenance
              inst' ~rows:s.delta.Broadcast.Repair.touched g
          in
          let fresh = Broadcast.Scheme.create ~provenance inst' g in
          Broadcast.Scheme.snapshot patched = Broadcast.Scheme.snapshot fresh
          && Broadcast.Scheme.to_json patched = Broadcast.Scheme.to_json fresh
          && Broadcast.Scheme.to_json s' = Broadcast.Scheme.to_json fresh))

(* A delta that leaves out the newcomer's row is a lie [apply_delta] can
   see, on the renumbering path as on the identity one. *)
let test_lying_delta_rejected () =
  let o = overlay_with_headroom Instance.fig1 0.8 in
  let expect_reject what (o', (s : Broadcast.Repair.stats)) ~newcomer =
    let s' = Broadcast.Overlay.scheme o' in
    let rows =
      Array.of_list
        (List.filter (( <> ) newcomer) (Array.to_list s.delta.Broadcast.Repair.touched))
    in
    match
      Broadcast.Scheme.apply_delta ~node_map:s.node_map
        ~base:(Broadcast.Overlay.scheme o)
        ~provenance:(Broadcast.Scheme.provenance s')
        (Broadcast.Scheme.instance s') ~rows (Broadcast.Scheme.graph s')
    with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: newcomer row left out, delta accepted" what
  in
  (* An open newcomer lands before the guarded block: renumbering. *)
  let ((_, s) as joined) = Broadcast.Repair.join o ~bandwidth:4.5 ~cls:Instance.Open in
  Alcotest.(check bool) "open join renumbers" false s.delta.Broadcast.Repair.identity;
  expect_reject "renumbering join" joined ~newcomer:3;
  (* The weakest guarded newcomer lands last: identity. *)
  let ((o', s) as joined) = Broadcast.Repair.join o ~bandwidth:0.5 ~cls:Instance.Guarded in
  Alcotest.(check bool) "last guarded join is identity" true
    s.delta.Broadcast.Repair.identity;
  expect_reject "identity join" joined
    ~newcomer:(Instance.size (Broadcast.Overlay.instance o') - 1)

let test_optimal_rate_branches () =
  let o = build_fig1 () in
  Alcotest.(check bool) "fig1: optimal_rate = rate (build)" true
    (Broadcast.Overlay.optimal_rate Instance.fig1
    = Some (Broadcast.Overlay.rate o));
  (* A silent source: the optimum is 0, no scheme exists, and the
     explicit branch reports it instead of catching the build's failure. *)
  let dead = Instance.create ~bandwidth:[| 0.; 5.; 3. |] ~n:1 ~m:1 () in
  Alcotest.(check bool) "zero optimum -> None" true
    (Broadcast.Overlay.optimal_rate dead = None);
  match Broadcast.Overlay.build dead with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "build accepted a zero-optimum instance"

let suites =
  [
    ( "overlay",
      [
        Alcotest.test_case "build" `Quick test_overlay_build;
        Alcotest.test_case "forced rate" `Quick test_overlay_forced_rate;
        Alcotest.test_case "edge distance" `Quick test_edge_distance;
      ] );
    ( "repair",
      [
        Alcotest.test_case "leave (leaf node)" `Quick test_leave_basic;
        Alcotest.test_case "leave (open node)" `Quick test_leave_open_node;
        Alcotest.test_case "leave validation" `Quick test_leave_validation;
        Alcotest.test_case "join (open)" `Quick test_join_open;
        Alcotest.test_case "join (guarded)" `Quick test_join_guarded;
        Alcotest.test_case "join validation" `Quick test_join_validation;
        Alcotest.test_case "rebuild" `Quick test_rebuild;
        Alcotest.test_case "leave/join roundtrip" `Quick test_leave_join_roundtrip;
        QCheck_alcotest.to_alcotest prop_leave_well_formed;
        QCheck_alcotest.to_alcotest prop_join_keeps_target;
        QCheck_alcotest.to_alcotest prop_leave_join_structure;
        Alcotest.test_case "optimal_rate branches" `Quick test_optimal_rate_branches;
        Alcotest.test_case "lying delta rejected" `Quick test_lying_delta_rejected;
        QCheck_alcotest.to_alcotest prop_fast_path_matches_oracle;
        QCheck_alcotest.to_alcotest prop_join_batch_is_fold;
        QCheck_alcotest.to_alcotest prop_renumbering_delta_matches_create;
      ] );
  ]
