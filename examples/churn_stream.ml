(* Keeping a broadcast overlay alive under churn — the open problem the
   paper's conclusion points at, using the local-repair extension.

   A 30-peer swarm streams at 90% of its optimal rate (the headroom is
   what makes local repair possible). Peers then leave and join one by
   one; after each event we patch the overlay locally and print how many
   connections moved and how much of the target rate survived, rebuilding
   from scratch only when the patch has degraded too far.

   Run with: dune exec examples/churn_stream.exe *)

let headroom = 0.9

let build inst =
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let () =
  let rng = Prng.Splitmix.create 321L in
  let inst =
    Platform.Generator.generate
      { Platform.Generator.total = 30; p_open = 0.7; dist = Prng.Dist.unif100 }
      rng
  in
  let overlay = ref (build inst) in
  Printf.printf "initial swarm: %d peers, streaming at %.2f (=%d%% of optimum)\n\n"
    (Platform.Instance.size inst - 1)
    (Broadcast.Overlay.rate !overlay)
    (int_of_float (100. *. headroom));
  Printf.printf "%-28s %12s %14s %10s\n" "event" "patch edges" "rebuild edges" "rate kept";
  for step = 1 to 12 do
    let size = Platform.Instance.size (Broadcast.Overlay.instance !overlay) in
    let leaving = size > 10 && Prng.Splitmix.next_float rng < 0.5 in
    let label, (patched, stats) =
      if leaving then begin
        let node = 1 + Prng.Splitmix.next_below rng (size - 1) in
        let b =
          (Broadcast.Overlay.instance !overlay).Platform.Instance.bandwidth.(node)
        in
        ( Printf.sprintf "%2d. peer leaves (b=%.1f)" step b,
          Broadcast.Repair.leave !overlay ~node )
      end
      else begin
        let bandwidth = Prng.Dist.sample Prng.Dist.unif100 rng in
        let cls =
          if Prng.Splitmix.next_float rng < 0.7 then Platform.Instance.Open
          else Platform.Instance.Guarded
        in
        ( Printf.sprintf "%2d. peer joins (b=%.1f,%s)" step bandwidth
            (match cls with Platform.Instance.Open -> "open" | _ -> "NAT"),
          Broadcast.Repair.join !overlay ~bandwidth ~cls )
      end
    in
    let target = headroom *. stats.Broadcast.Repair.optimal_after in
    let kept =
      if target > 0. then Float.min 1. (stats.Broadcast.Repair.rate_after /. target)
      else 1.
    in
    Printf.printf "%-28s %12d %14d %9.1f%%\n" label
      stats.Broadcast.Repair.patch_edges (Lazy.force stats.Broadcast.Repair.rebuild_edges)
      (100. *. kept);
    if kept < 0.8 then begin
      Printf.printf "    -> degraded too far, full rebuild\n";
      overlay := build (Broadcast.Overlay.instance patched)
    end
    else overlay := patched
  done;
  let final = !overlay in
  Printf.printf "\nfinal swarm: %d peers, verified rate %.2f (target %.2f)\n"
    (Platform.Instance.size (Broadcast.Overlay.instance final) - 1)
    (Broadcast.Overlay.verified_rate final)
    (Broadcast.Overlay.rate final)
