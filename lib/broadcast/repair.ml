open Platform
module G = Flowgraph.Graph
module Csr = Flowgraph.Csr

type delta = {
  full : bool;
  identity : bool;
  touched : int array;
  added : (int * int) array;
  removed : (int * int) array;
  reweighted : (int * int) array;
}

type stats = {
  patch_edges : int;
  rebuild_edges : int Lazy.t;
  rate_after : float;
  optimal_after : float;
  starved : int list;
  node_map : int array;
  delta : delta;
}

let full_delta =
  {
    full = true;
    identity = false;
    touched = [||];
    added = [||];
    removed = [||];
    reweighted = [||];
  }

(* Mutable edge-modification log threaded through the repair primitives;
   folded into the structured [delta] once the operation commits. [pre]
   keeps the weight every rewritten edge had before its first rewrite
   (post-event ids, [0.] when absent), which is all [patch_edges] needs. *)
type log = {
  mutable l_added : (int * int) list;  (* post-event ids *)
  mutable l_reweighted : (int * int) list;  (* post-event ids *)
  mutable l_removed : (int * int) list;  (* pre-event ids *)
  mutable l_nodes : int list;  (* post-event ids touched beyond edges *)
  pre : (int * int, float) Hashtbl.t;
}

let new_log () =
  {
    l_added = [];
    l_reweighted = [];
    l_removed = [];
    l_nodes = [];
    pre = Hashtbl.create 16;
  }

let note_rewrite log ~src ~dst ~before =
  if not (Hashtbl.mem log.pre (src, dst)) then Hashtbl.add log.pre (src, dst) before

(* Edges the repair changed, by [Overlay.edge_changed]: the same count
   [Overlay.edge_distance] gives between the projected pre-repair graph
   and [graph], since no edge outside the log was written. *)
let rewritten_edges log graph =
  Hashtbl.fold
    (fun (src, dst) before acc ->
      if Overlay.edge_changed ~before ~after:(G.edge_weight graph ~src ~dst) then
        acc + 1
      else acc)
    log.pre 0

let delta_of ~map log =
  let identity = ref true in
  Array.iteri (fun i v -> if v <> i then identity := false) map;
  let tbl = Hashtbl.create 16 in
  let touch v = if v >= 0 then Hashtbl.replace tbl v () in
  List.iter touch log.l_nodes;
  List.iter
    (fun (u, v) ->
      touch u;
      touch v)
    log.l_added;
  List.iter
    (fun (u, v) ->
      touch u;
      touch v)
    log.l_reweighted;
  (* Removed edges are logged in pre-event ids: the surviving endpoints
     are what the repaired overlay still has to answer for. *)
  List.iter
    (fun (u, v) ->
      touch map.(u);
      touch map.(v))
    log.l_removed;
  let touched =
    Array.of_list
      (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl []))
  in
  {
    full = false;
    identity = !identity;
    touched;
    added = Array.of_list (List.sort_uniq compare log.l_added);
    removed = Array.of_list (List.sort_uniq compare log.l_removed);
    reweighted = Array.of_list (List.sort_uniq compare log.l_reweighted);
  }

let compose_delta (d1 : delta) ~map (d2 : delta) =
  if d1.full || d2.full then full_delta
  else begin
    let touched =
      List.sort_uniq compare
        (Array.fold_left
           (fun acc v -> if map.(v) >= 0 then map.(v) :: acc else acc)
           (Array.to_list d2.touched) d1.touched)
    in
    { d2 with identity = d1.identity && d2.identity; touched = Array.of_list touched }
  end

(* Provenance of a patched scheme: the original algorithm wrapped once in
   [Repaired] — repairs of repairs keep a single layer of wrapping. The
   target rate promise is kept; the degree promise is dropped (refill can
   grow outdegrees past any constructive bound). *)
let repaired_provenance o =
  let p = Scheme.provenance (Overlay.scheme o) in
  let algorithm =
    match p.Scheme.algorithm with Scheme.Repaired _ as a -> a | a -> Scheme.Repaired a
  in
  { Scheme.algorithm; rate = p.Scheme.rate; degree_bound = None }

let patched_overlay_of o ~inst ~graph ~order ~node_map ~delta ~monotone =
  let provenance = repaired_provenance o in
  let scheme =
    (* Delta-scoped fast case: a join or leave renumbers monotonically (an
       unmoved degrade/restore does not renumber at all), so the base
       scheme's frozen snapshot is renumbered and only the touched rows
       are re-frozen and re-validated. The within-class permutation of a
       degrade/restore falls back to the full constructor. *)
    if monotone then
      Scheme.apply_delta ~node_map ~base:(Overlay.scheme o) ~provenance inst
        ~rows:delta.touched graph
    else Scheme.create ~provenance inst graph
  in
  Overlay.of_scheme scheme ~order

let remap_graph old_graph ~size ~map ~keep =
  let g = G.create size in
  G.iter_edges
    (fun ~src ~dst w ->
      if keep src && keep dst then G.set_edge g ~src:(map src) ~dst:(map dst) w)
    old_graph;
  g

(* Fill [deficit] units into [r] from nodes placed before it, spare-capacity
   only, conservative class preference; returns the unfilled remainder. *)
let refill inst graph ~log ~pos ~r ~deficit ~cut =
  let b = inst.Instance.bandwidth in
  let senders_of_class want_guarded =
    let all = ref [] in
    for u = 0 to Instance.size inst - 1 do
      if u <> r && pos.(u) < pos.(r) && Instance.is_guarded inst u = want_guarded
      then begin
        let spare = b.(u) -. G.out_weight graph u in
        if spare > cut then all := (pos.(u), u, spare) :: !all
      end
    done;
    List.sort compare !all
  in
  let draw remaining senders =
    List.fold_left
      (fun remaining (_, u, spare) ->
        if remaining <= cut then remaining
        else begin
          let amount = Float.min spare remaining in
          let before = G.edge_weight graph ~src:u ~dst:r in
          if before > 0. then log.l_reweighted <- (u, r) :: log.l_reweighted
          else log.l_added <- (u, r) :: log.l_added;
          note_rewrite log ~src:u ~dst:r ~before;
          G.add_edge graph ~src:u ~dst:r amount;
          remaining -. amount
        end)
      remaining senders
  in
  let remaining =
    if Instance.is_guarded inst r then deficit
    else draw deficit (senders_of_class true)
  in
  draw remaining (senders_of_class false)

(* Refill every reception deficit in topological order, so earlier repairs
   can rely on upstream nodes being whole again. *)
let refill_all inst graph ~log ~order ~rate =
  let pos = Array.make (Array.length order) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let cut = 1e-7 *. rate in
  Array.iter
    (fun r ->
      if r <> 0 then begin
        let deficit = rate -. G.in_weight graph r in
        if deficit > cut then
          ignore (refill inst graph ~log ~pos ~r ~deficit ~cut)
      end)
    order

(* Non-source nodes still receiving below [rate] (beyond a 1e-6 relative
   slack) — read off the patched scheme's cached CSR snapshot. *)
let starved_of scheme =
  let rate = Scheme.rate scheme in
  let snap = Scheme.snapshot scheme in
  let slack = 1e-6 *. Float.max 1. rate in
  let starved = ref [] in
  for v = Csr.node_count snap - 1 downto 1 do
    if Csr.in_weight snap v < rate -. slack then starved := v :: !starved
  done;
  !starved

(* A committed patch whose reference numbers are not computed yet. *)
type patch = {
  patched : Overlay.t;
  patch_edges : int;
  node_map : int array;
  delta : delta;
  reference : reference;
}

(* What [rebuild_edges] needs to re-project the pre-event overlay on
   demand, for the last operation of the patch: its pre-event snapshot
   (immutable, never a working graph) and node map, the edges its
   casualties dropped, and its own patch churn. *)
and reference = {
  before : Csr.t;
  map : int array;
  dropped : int;
  own_patch_edges : int;
}

(* Seal one operation: fold its log into the delta and the churn count
   ([dropped] edges went with casualties), and freeze the patched
   overlay. [monotone]: [node_map] is strictly increasing on survivors. *)
let commit o ~inst ~graph ~order ~node_map ~log ~dropped ~monotone =
  let delta = delta_of ~map:node_map log in
  let patch_edges = dropped + rewritten_edges log graph in
  {
    patched =
      patched_overlay_of o ~inst ~graph ~order ~node_map ~delta ~monotone;
    patch_edges;
    node_map;
    delta;
    reference =
      {
        before = Scheme.snapshot (Overlay.scheme o);
        map = node_map;
        dropped;
        own_patch_edges = patch_edges;
      };
  }

(* The pre-event edge set in post-event ids, departed nodes dropped. *)
let project r ~size =
  let g = G.create size in
  Csr.iter_edges
    (fun ~src ~dst w ->
      let s = r.map.(src) and d = r.map.(dst) in
      if s >= 0 && d >= 0 then G.set_edge g ~src:s ~dst:d w)
    r.before;
  g

let finish p =
  let o = p.patched in
  let inst = Overlay.instance o in
  (* [rate_after] comes from the patched scheme's memoized report — the CSR
     structured fast path on acyclic overlays, never a fresh max-flow. *)
  let rate_after = Overlay.verified_rate o in
  let starved = starved_of (Overlay.scheme o) in
  (* The optimum is the rate a cold [Overlay.build] would target, taken
     from the solver without building. Churn can leave an instance the
     Theorem 4.1 pipeline does not accept (optimum 0); the patch still
     stands on its own and the optimum reads 0 — "no alternative". *)
  let optimum = Overlay.optimal_rate inst in
  let r = p.reference in
  let rebuild_edges =
    lazy
      (match optimum with
      | None -> r.own_patch_edges
      | Some _ ->
        r.dropped
        + Overlay.edge_distance
            (project r ~size:(Instance.size inst))
            (Overlay.graph (Overlay.build inst)))
  in
  ( o,
    {
      patch_edges = p.patch_edges;
      rebuild_edges;
      rate_after;
      optimal_after = (match optimum with Some rate -> rate | None -> 0.);
      starved;
      node_map = p.node_map;
      delta = p.delta;
    } )

(* Shared removal core: drop a set of nodes in one event, remap the
   survivors, and refill every reception deficit in topological order. *)
let remove_nodes o ~nodes ~op =
  let inst = Overlay.instance o in
  let size = Instance.size inst in
  if nodes = [] then invalid_arg (op ^ ": no node to remove");
  let drop = Array.make size false in
  List.iter
    (fun v ->
      if v <= 0 || v >= size then invalid_arg (op ^ ": bad node");
      if drop.(v) then invalid_arg (op ^ ": duplicate node");
      drop.(v) <- true)
    nodes;
  let k = List.length nodes in
  if size - k < 2 then invalid_arg (op ^ ": cannot remove the last receiver");
  let map = Array.make size (-1) in
  let next = ref 0 in
  for v = 0 to size - 1 do
    if not drop.(v) then begin
      map.(v) <- !next;
      incr next
    end
  done;
  let b = inst.Instance.bandwidth in
  let bandwidth = Array.make (size - k) 0. in
  for v = 0 to size - 1 do
    if not drop.(v) then bandwidth.(map.(v)) <- b.(v)
  done;
  let dropped_open = ref 0 in
  for v = 1 to inst.Instance.n do
    if drop.(v) then incr dropped_open
  done;
  let n = inst.Instance.n - !dropped_open in
  let m = inst.Instance.m - (k - !dropped_open) in
  let new_inst = Instance.create ~bandwidth ~n ~m () in
  let order =
    Array.of_list
      (Array.to_list (Overlay.order o)
      |> List.filter (fun v -> not drop.(v))
      |> List.map (fun v -> map.(v)))
  in
  let old_graph = Overlay.graph o in
  let log = new_log () in
  (* Every connection incident to a casualty is churn the survivors pay. *)
  let touched = ref 0 in
  G.iter_edges
    (fun ~src ~dst _w ->
      if drop.(src) || drop.(dst) then begin
        incr touched;
        log.l_removed <- (src, dst) :: log.l_removed
      end)
    old_graph;
  let graph =
    remap_graph old_graph ~size:(size - k) ~map:(fun v -> map.(v))
      ~keep:(fun v -> not drop.(v))
  in
  refill_all new_inst graph ~log ~order ~rate:(Overlay.rate o);
  finish
    (commit o ~inst:new_inst ~graph ~order ~node_map:map ~log ~dropped:!touched
       ~monotone:true)

let leave o ~node = remove_nodes o ~nodes:[ node ] ~op:"Repair.leave"

let leave_batch o ~nodes =
  remove_nodes o ~nodes:(List.sort_uniq compare nodes) ~op:"Repair.leave_batch"

let sorted_insert_position inst ~cls ~bandwidth =
  let b = inst.Instance.bandwidth in
  let scan lo hi =
    let rec go i = if i > hi then hi + 1 else if b.(i) < bandwidth then i else go (i + 1) in
    go lo
  in
  match cls with
  | Instance.Open -> scan 1 inst.Instance.n
  | Instance.Guarded ->
    scan (inst.Instance.n + 1) (inst.Instance.n + inst.Instance.m)

let join_patch o ~bandwidth ~cls =
  if bandwidth < 0. || not (Float.is_finite bandwidth) then
    invalid_arg "Repair.join: bad bandwidth";
  let inst = Overlay.instance o in
  let size = Instance.size inst in
  let p = sorted_insert_position inst ~cls ~bandwidth in
  let b = inst.Instance.bandwidth in
  let new_bandwidth =
    Array.init (size + 1) (fun i ->
        if i < p then b.(i) else if i = p then bandwidth else b.(i - 1))
  in
  let n = inst.Instance.n + (if cls = Instance.Open then 1 else 0) in
  let m = inst.Instance.m + (if cls = Instance.Guarded then 1 else 0) in
  let new_inst = Instance.create ~bandwidth:new_bandwidth ~n ~m () in
  let map u = if u < p then u else u + 1 in
  let graph =
    remap_graph (Overlay.graph o) ~size:(size + 1) ~map ~keep:(fun _ -> true)
  in
  let order = Array.append (Array.map map (Overlay.order o)) [| p |] in
  let pos = Array.make (size + 1) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  let rate = Overlay.rate o in
  let cut = 1e-7 *. rate in
  let log = new_log () in
  log.l_nodes <- [ p ];
  (* On a saturated overlay this fills nothing: the newcomer is admitted
     at rate 0 and lands in [stats.starved] — never an exception. *)
  ignore (refill new_inst graph ~log ~pos ~r:p ~deficit:rate ~cut);
  commit o ~inst:new_inst ~graph ~order ~node_map:(Array.init size map) ~log
    ~dropped:0 ~monotone:true

let join o ~bandwidth ~cls = finish (join_patch o ~bandwidth ~cls)

(* Two consecutive patches as one event: churn adds up, node maps and
   deltas compose, the reference is the later operation's. *)
let then_patch (p1 : patch) (p2 : patch) =
  {
    patched = p2.patched;
    patch_edges = p1.patch_edges + p2.patch_edges;
    node_map =
      Array.map (fun v -> if v < 0 then -1 else p2.node_map.(v)) p1.node_map;
    delta = compose_delta p1.delta ~map:p2.node_map p2.delta;
    reference = p2.reference;
  }

let join_batch o ~arrivals =
  match arrivals with
  | [] -> invalid_arg "Repair.join_batch: no arrival"
  | (bandwidth, cls) :: rest ->
    finish
      (List.fold_left
         (fun acc (bandwidth, cls) ->
           then_patch acc (join_patch acc.patched ~bandwidth ~cls))
         (join_patch o ~bandwidth ~cls)
         rest)

(* Bandwidth change without membership change: move the node to its sorted
   position within its class (a label permutation — the topology and the
   topological order are untouched), clamp its outgoing edges to the new
   cap, then refill every reception deficit from spare capacity. *)
let set_bandwidth o ~node ~bandwidth ~op =
  let inst = Overlay.instance o in
  let size = Instance.size inst in
  if node < 0 || node >= size then invalid_arg (op ^ ": bad node");
  if not (Float.is_finite bandwidth) || bandwidth < 0. then
    invalid_arg (op ^ ": bad bandwidth");
  if node = 0 && bandwidth <= 0. then
    invalid_arg (op ^ ": source bandwidth must stay positive");
  let b = inst.Instance.bandwidth in
  let b' = Array.copy b in
  b'.(node) <- bandwidth;
  (* Stable re-sort of the node's class block under the new bandwidth;
     every other pair keeps its relative order, so the permutation is
     deterministic and [Instance.sorted] holds again. *)
  let lo, hi =
    if node = 0 then (0, 0)
    else if Instance.is_open inst node then (1, inst.Instance.n)
    else (inst.Instance.n + 1, inst.Instance.n + inst.Instance.m)
  in
  let block =
    List.stable_sort
      (fun i j -> compare b'.(j) b'.(i))
      (List.init (hi - lo + 1) (fun i -> lo + i))
  in
  let map = Array.init size (fun v -> v) in
  List.iteri (fun i old -> map.(old) <- lo + i) block;
  let bandwidth_sorted = Array.make size 0. in
  Array.iteri (fun old new_i -> bandwidth_sorted.(new_i) <- b'.(old)) map;
  let new_inst =
    Instance.create ~bandwidth:bandwidth_sorted ~n:inst.Instance.n
      ~m:inst.Instance.m ()
  in
  let identity = Array.for_all2 ( = ) map (Array.init size (fun v -> v)) in
  let graph =
    (* Identity fast case: the class re-sort kept every node in place, so
       the fresh copy [Overlay.graph] hands out already carries the
       post-event numbering — no hashtable remap pass. *)
    if identity then Overlay.graph o
    else
      remap_graph (Overlay.graph o) ~size ~map:(fun v -> map.(v))
        ~keep:(fun _ -> true)
  in
  let node' = map.(node) in
  let log = new_log () in
  log.l_nodes <- [ node' ];
  let out = G.out_weight graph node' in
  if out > bandwidth then begin
    List.iter
      (fun (dst, w) ->
        log.l_reweighted <- (node', dst) :: log.l_reweighted;
        note_rewrite log ~src:node' ~dst ~before:w)
      (G.out_edges graph node');
    if bandwidth <= 0. then
      List.iter
        (fun (dst, _w) -> G.set_edge graph ~src:node' ~dst 0.)
        (G.out_edges graph node')
    else begin
      let s = bandwidth /. out in
      List.iter
        (fun (dst, w) -> G.set_edge graph ~src:node' ~dst (w *. s))
        (G.out_edges graph node')
    end
  end;
  let order =
    if identity then Array.copy (Overlay.order o)
    else Array.map (fun v -> map.(v)) (Overlay.order o)
  in
  refill_all new_inst graph ~log ~order ~rate:(Overlay.rate o);
  finish
    (commit o ~inst:new_inst ~graph ~order ~node_map:map ~log ~dropped:0
       ~monotone:identity)

let degrade o ~node ~bandwidth =
  let inst = Overlay.instance o in
  if node >= 0 && node < Instance.size inst
     && not (Util.fle bandwidth inst.Instance.bandwidth.(node))
  then invalid_arg "Repair.degrade: bandwidth increased";
  set_bandwidth o ~node ~bandwidth ~op:"Repair.degrade"

let restore o ~node ~bandwidth =
  let inst = Overlay.instance o in
  if node >= 0 && node < Instance.size inst
     && not (Util.fge bandwidth inst.Instance.bandwidth.(node))
  then invalid_arg "Repair.restore: bandwidth decreased";
  set_bandwidth o ~node ~bandwidth ~op:"Repair.restore"

let rebuild ?headroom o =
  let inst = Overlay.instance o in
  let rebuilt, optimal_after =
    match headroom with
    | None ->
      let rebuilt = Overlay.build inst in
      (rebuilt, Overlay.rate rebuilt)
    | Some h ->
      if not (h > 0. && h <= 1.) then
        invalid_arg "Repair.rebuild: headroom must lie in (0, 1]";
      let t, _ = Greedy.optimal_acyclic inst in
      (Overlay.build ~rate:(t *. h) inst, t)
  in
  let edges = Overlay.edge_distance (Overlay.graph o) (Overlay.graph rebuilt) in
  ( rebuilt,
    {
      patch_edges = edges;
      rebuild_edges = Lazy.from_val edges;
      rate_after = Overlay.verified_rate rebuilt;
      optimal_after;
      starved = starved_of (Overlay.scheme rebuilt);
      node_map = Array.init (Instance.size inst) (fun v -> v);
      delta = full_delta;
    } )
