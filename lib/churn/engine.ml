open Broadcast
module Instance = Platform.Instance

type action = Patched | Rebuilt | Skipped

type record = {
  index : int;
  event : Trace.event;
  action : action;
  size : int;
  rate : float;
  optimal : float;
  ratio : float;
  churn_edges : int;
  cumulative_churn : int;
  max_excess : int;
  rebuilds : int;
}

type summary = {
  events : int;
  applied : int;
  skipped : int;
  rebuilds : int;
  total_churn : int;
  min_ratio : float;
  mean_ratio : float;
  final_size : int;
  final_rate : float;
  final_optimal : float;
}

type result = { overlay : Overlay.t; timeline : record list; summary : summary }

(* Smallest population the engine maintains: the source plus two
   receivers, so every repair operation stays within its contract. *)
let min_population = 3

let resolve_pick ~size pick = 1 + (pick mod (size - 1))

let ratio_of ~rate ~optimal =
  if optimal > 0. && Float.is_finite optimal then rate /. optimal else 1.

let cls_of guarded = if guarded then Instance.Guarded else Instance.Open

(* Distinct casualties for a correlated failure, keeping at least
   [min_population] survivors; picks beyond that budget are dropped. *)
let resolve_batch ~size picks =
  let budget = size - min_population in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun pick ->
      let v = resolve_pick ~size pick in
      if Hashtbl.length seen >= budget || Hashtbl.mem seen v then None
      else begin
        Hashtbl.add seen v ();
        Some v
      end)
    picks

let apply o (event : Trace.event) =
  let size = Scheme.size (Overlay.scheme o) in
  match event with
  | Leave { pick } ->
    if size <= min_population then None
    else Some (Repair.leave o ~node:(resolve_pick ~size pick))
  | Join { bandwidth; guarded } ->
    Some (Repair.join o ~bandwidth ~cls:(cls_of guarded))
  | Degrade { pick; factor } ->
    let node = resolve_pick ~size pick in
    let b = (Overlay.instance o).Instance.bandwidth.(node) in
    Some (Repair.degrade o ~node ~bandwidth:(b *. factor))
  | Restore { pick; factor } ->
    let node = resolve_pick ~size pick in
    let b = (Overlay.instance o).Instance.bandwidth.(node) in
    Some (Repair.restore o ~node ~bandwidth:(b /. factor))
  | Fail_batch { picks } ->
    (match resolve_batch ~size picks with
    | [] -> None
    | nodes -> Some (Repair.leave_batch o ~nodes))
  | Flash_crowd { arrivals } ->
    (* The burst is one event to the caller: one repair whose node map and
       delta compose the per-arrival ones. *)
    (match arrivals with
    | [] -> None
    | _ ->
      Some
        (Repair.join_batch o
           ~arrivals:(List.map (fun (b, guarded) -> (b, cls_of guarded)) arrivals)))

(* Resumable engine state: [run] is now a fold of [step] over the trace,
   and long-running consumers (the tracker daemon) drive [step] directly
   so one engine survives an unbounded request stream. All counters and
   the policy/warm-flow state live here; the stepping order of operations
   is exactly the old [run] loop, so replays stay byte-identical. *)
type state = {
  pstate : Policy.state;
  audit : Audit.level;
  rebuild_headroom : float option;
  probe :
    (index:int -> Overlay.t -> Flowgraph.Maxflow.Incremental.t option -> unit)
    option;
  flow : Flowgraph.Maxflow.Incremental.t option;
  mutable overlay : Overlay.t;
  mutable steps : int;
  mutable applied : int;
  mutable skipped : int;
  mutable rebuilds : int;
  mutable churn : int;
  mutable min_ratio : float;
  mutable sum_ratio : float;
  mutable last : record option;
  (* Repair stats the latest step's warm flow and audit were driven by;
     [None] after a skipped event. *)
  mutable last_repair : Repair.stats option;
  (* Audit deferred by [step ~defer_audit:true], waiting for
     [flush_audit]: index and repair stats of the latest applied event. *)
  mutable pending_audit : (int * Repair.stats) option;
}

let start ?(policy = Policy.Always_patch) ?(audit = Audit.Off)
    ?(engine = Audit.Full) ?rebuild_headroom ?probe overlay =
  (* Warm flow state, threaded across every subsequent step under the
     incremental engine; the knob changes what is *maintained and
     audited*, never what the run produces — timelines and summaries are
     byte-identical across engines. *)
  let flow =
    match engine with
    | Audit.Full -> None
    | Audit.Incremental ->
      Some
        (Flowgraph.Maxflow.Incremental.create
           (Scheme.snapshot (Overlay.scheme overlay))
           ~src:0)
  in
  {
    pstate = Policy.init policy overlay;
    audit;
    rebuild_headroom;
    probe;
    flow;
    overlay;
    steps = 0;
    applied = 0;
    skipped = 0;
    rebuilds = 0;
    churn = 0;
    min_ratio = 1.;
    sum_ratio = 0.;
    last = None;
    last_repair = None;
    pending_audit = None;
  }

let live st = st.overlay
let last_repair st = st.last_repair

let flush_audit st =
  match st.pending_audit with
  | None -> ()
  | Some (index, stats) ->
    st.pending_audit <- None;
    Audit.check st.audit ~index ~stats ?flow:st.flow st.overlay

let step ?(defer_audit = false) st event =
  let index = st.steps in
  st.steps <- st.steps + 1;
  let record =
    match apply st.overlay event with
    | None ->
      st.skipped <- st.skipped + 1;
      st.last_repair <- None;
      let o = st.overlay in
      let rate = Overlay.verified_rate o in
      {
        index;
        event;
        action = Skipped;
        size = Scheme.size (Overlay.scheme o);
        rate;
        optimal = rate;
        ratio = 1.;
        churn_edges = 0;
        cumulative_churn = st.churn;
        max_excess = (Metrics.scheme_report (Overlay.scheme o)).max_excess;
        rebuilds = st.rebuilds;
      }
    | Some (patched, (stats : Repair.stats)) ->
      st.applied <- st.applied + 1;
      let max_excess =
        (Metrics.scheme_report (Overlay.scheme patched)).max_excess
      in
      let obs =
        { Policy.rate = stats.rate_after; optimal = stats.optimal_after; max_excess }
      in
      let o, action, churn_edges, (fstats : Repair.stats), max_excess =
        if Policy.decide st.pstate obs then begin
          let rebuilt, (rstats : Repair.stats) =
            Repair.rebuild ?headroom:st.rebuild_headroom patched
          in
          st.rebuilds <- st.rebuilds + 1;
          Policy.note_rebuild st.pstate rebuilt;
          ( rebuilt,
            Rebuilt,
            stats.patch_edges + rstats.patch_edges,
            rstats,
            (Metrics.scheme_report (Overlay.scheme rebuilt)).max_excess )
        end
        else (patched, Patched, stats.patch_edges, stats, max_excess)
      in
      let rate = fstats.rate_after and optimal = fstats.optimal_after in
      st.overlay <- o;
      st.last_repair <- Some fstats;
      st.churn <- st.churn + churn_edges;
      let ratio = ratio_of ~rate ~optimal in
      st.min_ratio <- Float.min st.min_ratio ratio;
      st.sum_ratio <- st.sum_ratio +. ratio;
      (match st.flow with
      | None -> ()
      | Some inc ->
        let snap = Scheme.snapshot (Overlay.scheme o) in
        (match action with
        | Rebuilt ->
          (* A rebuild rewires the whole overlay; warm state would
             refund nearly everything, so restart cold. *)
          Flowgraph.Maxflow.Incremental.rebase inc snap
        | Patched | Skipped ->
          Flowgraph.Maxflow.Incremental.apply inc
            ~map:fstats.Repair.node_map snap));
      if defer_audit then begin
        (* Superseding a still-pending audit must not shrink its scope:
           carry the pending delta forward through this event's
           renumbering so the eventual flush re-checks everything any
           deferred event in the batch disturbed. *)
        let fstats =
          match st.pending_audit with
          | None -> fstats
          | Some (_, (prev : Repair.stats)) ->
            {
              fstats with
              Repair.delta =
                Repair.compose_delta prev.Repair.delta ~map:fstats.Repair.node_map
                  fstats.Repair.delta;
            }
        in
        st.pending_audit <- Some (index, fstats)
      end
      else begin
        (* An inline audit of the current state also covers whatever an
           earlier deferred step left pending. *)
        st.pending_audit <- None;
        Audit.check st.audit ~index ~stats:fstats ?flow:st.flow o
      end;
      (match st.probe with Some f -> f ~index o st.flow | None -> ());
      {
        index;
        event;
        action;
        size = Scheme.size (Overlay.scheme o);
        rate;
        optimal;
        ratio;
        churn_edges;
        cumulative_churn = st.churn;
        max_excess;
        rebuilds = st.rebuilds;
      }
  in
  st.last <- Some record;
  record

let progress st =
  let final = st.overlay in
  let final_rate = Overlay.verified_rate final in
  let final_optimal =
    match st.last with
    | Some r when r.action <> Skipped -> r.optimal
    | _ -> final_rate
  in
  {
    events = st.steps;
    applied = st.applied;
    skipped = st.skipped;
    rebuilds = st.rebuilds;
    total_churn = st.churn;
    min_ratio = st.min_ratio;
    mean_ratio =
      (if st.applied = 0 then 1. else st.sum_ratio /. float_of_int st.applied);
    final_size = Scheme.size (Overlay.scheme final);
    final_rate;
    final_optimal;
  }

let run ?policy ?audit ?engine ?rebuild_headroom ?on_event ?probe start_overlay
    trace =
  let st = start ?policy ?audit ?engine ?rebuild_headroom ?probe start_overlay in
  let timeline = ref [] in
  Array.iter
    (fun event ->
      let record = step st event in
      (match on_event with Some f -> f record | None -> ());
      timeline := record :: !timeline)
    trace.Trace.events;
  { overlay = st.overlay; timeline = List.rev !timeline; summary = progress st }
