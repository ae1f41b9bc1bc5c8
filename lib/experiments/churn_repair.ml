open Platform

type summary = {
  events : int;
  headroom : float;
  patch_edges_mean : float;
  rebuild_edges_mean : float;
  kept_mean : float;
  kept_min : float;
  rebuilds : int;
}

let build_with_headroom inst ~headroom =
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let run ?(nodes = 40) ?(events = 30) ?(p_open = 0.7) ?(headroom = 0.9)
    ?(rebuild_threshold = 0.8) ?(seed = 101L) () =
  if headroom <= 0. || headroom >= 1. then
    invalid_arg "Churn_repair.run: headroom must lie in (0, 1)";
  let rng = Prng.Splitmix.create seed in
  let dist = Prng.Dist.unif100 in
  let inst =
    Platform.Generator.generate { Platform.Generator.total = nodes; p_open; dist } rng
  in
  let overlay = ref (build_with_headroom inst ~headroom) in
  let patch_edges = ref [] and rebuild_edges = ref [] and kept = ref [] in
  let rebuilds = ref 0 in
  for _ = 1 to events do
    let size = Instance.size (Broadcast.Overlay.instance !overlay) in
    let leave = size > 3 && Prng.Splitmix.next_float rng < 0.5 in
    let patched, stats =
      if leave then begin
        let node = 1 + Prng.Splitmix.next_below rng (size - 1) in
        Broadcast.Repair.leave !overlay ~node
      end
      else begin
        let bandwidth = Prng.Dist.sample dist rng in
        let cls =
          if Prng.Splitmix.next_float rng < p_open then Instance.Open
          else Instance.Guarded
        in
        Broadcast.Repair.join !overlay ~bandwidth ~cls
      end
    in
    patch_edges := float_of_int stats.Broadcast.Repair.patch_edges :: !patch_edges;
    rebuild_edges := float_of_int (Lazy.force stats.Broadcast.Repair.rebuild_edges) :: !rebuild_edges;
    let target = headroom *. stats.Broadcast.Repair.optimal_after in
    let ratio =
      if target > 0. then Float.min 1. (stats.Broadcast.Repair.rate_after /. target)
      else 1.
    in
    kept := ratio :: !kept;
    if ratio < rebuild_threshold then begin
      incr rebuilds;
      overlay := build_with_headroom (Broadcast.Overlay.instance patched) ~headroom
    end
    else overlay := patched
  done;
  let arr l = Array.of_list l in
  {
    events;
    headroom;
    patch_edges_mean = Stats.mean (arr !patch_edges);
    rebuild_edges_mean = Stats.mean (arr !rebuild_edges);
    kept_mean = Stats.mean (arr !kept);
    kept_min = Array.fold_left Float.min 1. (arr !kept);
    rebuilds = !rebuilds;
  }

let print fmt =
  Format.pp_print_string fmt
    (Tab.section "E13 (extension) - churn: local repair vs full rebuild");
  let rows =
    List.map
      (fun headroom ->
        let s = run ~headroom () in
        [
          Tab.fmt "%.2f" s.headroom;
          string_of_int s.events;
          Tab.fmt "%.1f" s.patch_edges_mean;
          Tab.fmt "%.1f" s.rebuild_edges_mean;
          Tab.fmt "%.4f" s.kept_mean;
          Tab.fmt "%.4f" s.kept_min;
          string_of_int s.rebuilds;
        ])
      [ 0.99; 0.9; 0.75 ]
  in
  Format.pp_print_string fmt
    (Tab.render
       ~header:
         [
           "headroom"; "events"; "patch edges"; "rebuild edges"; "kept mean";
           "kept min"; "rebuilds";
         ]
       rows);
  Format.pp_print_string fmt
    "At full utilization (headroom ~ 1) a single departure can starve the\n\
     downstream overlay and force rebuilds — the fragility the paper's\n\
     conclusion anticipates. Modest headroom lets O(degree)-edge local\n\
     patches absorb churn that a rebuild would answer by re-wiring the\n\
     whole swarm.\n"
