(* bmp — bounded multi-port broadcast toolbox.

   Subcommands:
     solve      compute throughputs and a low-degree overlay for an instance
     generate   draw a random instance (paper's average-case protocol)
     exp        run one paper experiment by name (fig1, fig7, ...)
     exp-all    run every experiment (the EXPERIMENTS.md content)
     simulate   run the randomized transport on a computed overlay
     stream     flat-arena event-heap dataplane (delay/occupancy at scale)
     scheme     build / check / show / export persistent scheme artifacts *)

open Cmdliner

(* Exit-code contract: usage/parse errors (bad flags, unreadable or
   malformed input files) exit 2 via [die]; domain failures on valid
   input (infeasible rate, failed verification, audit violation) exit 1
   via [fail]. *)
let die msg =
  Printf.eprintf "error: %s\n" msg;
  exit 2

let fail msg =
  Printf.eprintf "error: %s\n" msg;
  exit 1

(* Turn I/O errors into clean CLI failures instead of "internal error"
   tracebacks. Deliberately does NOT catch [Invalid_argument]: that would
   also swallow genuine programming errors (array bounds, broken library
   preconditions) as exit-code-2 CLI errors. The few call sites where
   [Invalid_argument] legitimately reflects bad user input (parsing,
   infeasible construction parameters) handle it explicitly with
   [or_invalid]. *)
let or_die f = try f () with Sys_error msg -> die msg

(* For calls whose [Invalid_argument] is a user-input error (e.g. a
   construction on a degenerate hand-written instance), not a bug. *)
let or_invalid f = try f () with Invalid_argument msg -> die msg

let read_all ic =
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 4096
     done
   with End_of_file -> ());
  Buffer.contents buf

let read_text path =
  or_die (fun () ->
      if path = "-" then read_all stdin
      else begin
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () -> read_all ic)
      end)

let read_instance path =
  let content = read_text path in
  match Platform.Instance.of_string content with
  | Ok inst -> or_invalid (fun () -> fst (Platform.Instance.normalize inst))
  | Error msg -> die (Printf.sprintf "cannot parse %s: %s" path msg)

let instance_arg =
  let doc = "Instance file (lines: 'source B', 'open B', 'guarded B'); '-' for stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"INSTANCE" ~doc)

(* solve *)

let solve_kind =
  let doc = "Scheme family: 'acyclic' (Theorem 4.1) or 'cyclic' (Theorem 5.2, open-only)." in
  Arg.(value & opt (enum [ ("acyclic", `Acyclic); ("cyclic", `Cyclic) ]) `Acyclic
       & info [ "k"; "kind" ] ~doc)

let show_scheme =
  let doc = "Print the overlay edges." in
  Arg.(value & flag & info [ "edges" ] ~doc)

let dot_out =
  let doc = "Write the overlay as a Graphviz file." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let json_out =
  let doc = "Write the overlay as JSON." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let write_file path content =
  or_die @@ fun () ->
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc content)

(* Shared -j/--jobs option: worker-domain count for parallel sweeps. *)
let jobs_arg =
  let doc =
    "Worker domains for parallel work (default: one per core). Results \
     are identical for every value, including 1."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let check_jobs = function
  | Some j when j < 1 -> die "--jobs must be >= 1"
  | jobs -> jobs

let solve_cmd =
  let run path kind edges dot json =
    let inst = read_instance path in
    Printf.printf "instance: n=%d open, m=%d guarded, b0=%g\n"
      inst.Platform.Instance.n inst.Platform.Instance.m
      inst.Platform.Instance.bandwidth.(0);
    Printf.printf "cyclic optimum T* (Lemma 5.1)      : %.6f\n"
      (Broadcast.Bounds.cyclic_upper inst);
    let t_ac, word = Broadcast.Greedy.optimal_acyclic inst in
    Printf.printf "acyclic optimum T*ac (Theorem 4.1) : %.6f (word %s)\n" t_ac
      (Broadcast.Word.to_string word);
    let rate, scheme =
      (* A degenerate hand-written instance (e.g. zero bandwidth
         everywhere) can make the construction infeasible — that is a
         user-input error, not a bug. *)
      or_invalid @@ fun () ->
      match kind with
      | `Acyclic -> Broadcast.Low_degree.build_optimal inst
      | `Cyclic ->
        if inst.Platform.Instance.m > 0 then
          die "cyclic construction requires open nodes only";
        let t = Broadcast.Bounds.cyclic_open_optimal inst in
        (t, Broadcast.Cyclic_open.build inst)
    in
    let graph = Broadcast.Scheme.graph scheme in
    let report = Broadcast.Scheme.report scheme in
    let degrees = Broadcast.Metrics.scheme_report scheme in
    Printf.printf "built scheme: rate %.6f, max-flow throughput %.6f, %s\n" rate
      report.Broadcast.Verify.throughput
      (if report.Broadcast.Verify.acyclic then "acyclic" else "cyclic");
    Printf.printf "degree excess over ceil(b/T): max %d\n"
      degrees.Broadcast.Metrics.max_excess;
    if edges then
      Flowgraph.Graph.iter_edges
        (fun ~src ~dst w -> Printf.printf "  C%d -> C%d : %.6f\n" src dst w)
        graph;
    let node_class v =
      if v = 0 then Some "source"
      else if Platform.Instance.is_guarded inst v then Some "guarded"
      else Some "open"
    in
    Option.iter
      (fun path ->
        write_file path (Flowgraph.Export.to_dot ~node_class graph);
        Printf.printf "wrote %s\n" path)
      dot;
    Option.iter
      (fun path ->
        write_file path (Flowgraph.Export.to_json graph);
        Printf.printf "wrote %s\n" path)
      json
  in
  let info = Cmd.info "solve" ~doc:"Compute optimal throughputs and build an overlay." in
  Cmd.v info
    Term.(const run $ instance_arg $ solve_kind $ show_scheme $ dot_out $ json_out)

(* generate *)

let generate_cmd =
  let total =
    Arg.(value & opt int 20 & info [ "n"; "nodes" ] ~doc:"Number of non-source nodes.")
  in
  let p_open =
    Arg.(value & opt float 0.7 & info [ "p"; "p-open" ] ~doc:"Probability a node is open.")
  in
  let dist =
    let dist_conv =
      Arg.enum
        [
          ("unif100", Prng.Dist.unif100);
          ("power1", Prng.Dist.power1);
          ("power2", Prng.Dist.power2);
          ("ln1", Prng.Dist.ln1);
          ("ln2", Prng.Dist.ln2);
          ("plab", Platform.Plab.dist);
        ]
    in
    Arg.(value & opt dist_conv Prng.Dist.unif100
         & info [ "d"; "dist" ] ~doc:"Bandwidth distribution (unif100, power1, power2, ln1, ln2, plab).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let count =
    Arg.(value & opt int 1
         & info [ "count" ] ~docv:"COUNT"
             ~doc:"Number of instances to draw (in parallel when > 1).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"PREFIX"
             ~doc:"Write instances to PREFIX-0001.txt, PREFIX-0002.txt, ... \
                   (required when $(b,--count) > 1).")
  in
  let run total p dist seed count out jobs =
    let jobs = check_jobs jobs in
    if total < 1 then die "--nodes must be >= 1";
    if p < 0. || p > 1. then die "--p-open must lie in [0, 1]";
    if count < 1 then die "--count must be >= 1";
    if count > 1 && out = None then die "--count > 1 requires --out PREFIX";
    (* Seeding discipline: instance k always consumes split k of the root
       stream, so a batch is reproducible instance-by-instance and
       identical for every --jobs value. *)
    let root = Prng.Splitmix.create (Int64.of_int seed) in
    let streams = Prng.Splitmix.split_n root count in
    let spec = { Platform.Generator.total; p_open = p; dist } in
    let instances =
      Parallel.Pool.map_range ?jobs count (fun k ->
          or_invalid (fun () -> Platform.Generator.generate spec streams.(k)))
    in
    match out with
    | None -> print_string (Platform.Instance.to_string instances.(0))
    | Some prefix ->
      Array.iteri
        (fun k inst ->
          let path = Printf.sprintf "%s-%04d.txt" prefix (k + 1) in
          write_file path (Platform.Instance.to_string inst);
          Printf.printf "wrote %s\n" path)
        instances
  in
  let info =
    Cmd.info "generate"
      ~doc:"Draw random instances (source pinned to the cyclic optimum)."
  in
  Cmd.v info Term.(const run $ total $ p_open $ dist $ seed $ count $ out $ jobs_arg)

(* exp *)

let exp_cmd =
  let name_arg =
    let names = String.concat ", " (List.map (fun e -> e.Experiments.Registry.name) Experiments.Registry.all) in
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:("Experiment name: " ^ names ^ "."))
  in
  let run name jobs =
    let jobs = check_jobs jobs in
    match Experiments.Registry.find name with
    | Some e ->
      e.Experiments.Registry.run ?jobs Format.std_formatter;
      Format.pp_print_flush Format.std_formatter ()
    | None -> die (Printf.sprintf "unknown experiment %S (try 'bmp exp-all')" name)
  in
  let info = Cmd.info "exp" ~doc:"Run one paper experiment." in
  Cmd.v info Term.(const run $ name_arg $ jobs_arg)

let exp_all_cmd =
  let run jobs =
    let jobs = check_jobs jobs in
    Experiments.Registry.run_all ?jobs Format.std_formatter;
    Format.pp_print_flush Format.std_formatter ()
  in
  let info = Cmd.info "exp-all" ~doc:"Run every paper experiment (tables and figures)." in
  Cmd.v info Term.(const run $ jobs_arg)

(* trees *)

let trees_cmd =
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the tree schedule as JSON.")
  in
  let run path json =
    let inst = read_instance path in
    let rate, scheme =
      or_invalid (fun () -> Broadcast.Low_degree.build_optimal inst)
    in
    let trees =
      or_invalid (fun () ->
          Flowgraph.Arborescence.decompose (Broadcast.Scheme.graph scheme) ~root:0)
    in
    Printf.printf "overlay rate %.6f decomposed into %d broadcast trees:\n" rate
      (List.length trees);
    List.iteri
      (fun k tree ->
        Printf.printf "  tree %d: rate %.6f, depth %d\n" k
          tree.Flowgraph.Arborescence.weight
          (Flowgraph.Arborescence.tree_depth tree))
      trees;
    Option.iter
      (fun path ->
        write_file path (Flowgraph.Export.schedule_to_json trees);
        Printf.printf "wrote %s\n" path)
      json
  in
  let info =
    Cmd.info "trees"
      ~doc:"Decompose the optimal overlay into weighted broadcast trees."
  in
  Cmd.v info Term.(const run $ instance_arg $ json_out)

(* selfcheck *)

let selfcheck_cmd =
  let run () =
    let failures = Experiments.Selfcheck.print Format.std_formatter in
    Format.pp_print_flush Format.std_formatter ();
    if failures > 0 then exit 1
  in
  let info =
    Cmd.info "selfcheck"
      ~doc:"Run the built-in validation battery (paper constants, oracle             agreement, scheme validity)."
  in
  Cmd.v info Term.(const run $ const ())

(* simulate *)

let simulate_cmd =
  let chunks =
    Arg.(value & opt int 300 & info [ "chunks" ] ~doc:"Number of chunks to broadcast.")
  in
  let streaming = Arg.(value & flag & info [ "streaming" ] ~doc:"Live-stream release schedule.") in
  let run path chunks streaming =
    if chunks < 1 then die "--chunks must be >= 1";
    let inst = read_instance path in
    let rate, scheme =
      or_invalid (fun () -> Broadcast.Low_degree.build_optimal inst)
    in
    let config =
      {
        Stream.Dataplane.default_config with
        chunks;
        streaming;
        discipline = Oracle_reservoir;
      }
    in
    let r = Stream.Dataplane.run ~config (Broadcast.Scheme.snapshot scheme) ~rate in
    Printf.printf "overlay rate           : %.6f\n" rate;
    Printf.printf "delivered all chunks   : %b\n" r.delivered_all;
    Printf.printf "completion time        : %.3f (ideal %.3f)\n"
      r.completion_time
      (float_of_int chunks /. rate);
    Printf.printf "efficiency             : %.4f\n" r.efficiency;
    Printf.printf "worst lag (chunk-times): %.1f\n" (r.max_lag *. rate);
    Printf.printf "transfers              : %d\n" r.transfers
  in
  let info =
    Cmd.info "simulate"
      ~doc:"Build the optimal low-degree overlay and run randomized transport on it."
  in
  Cmd.v info Term.(const run $ instance_arg $ chunks $ streaming)

(* stream: flat-arena dataplane *)

let stream_run_cmd =
  let chunks =
    Arg.(value & opt int 1024
         & info [ "chunks" ] ~doc:"Number of chunks to broadcast.")
  in
  let streaming =
    Arg.(value & flag & info [ "streaming" ] ~doc:"Live-stream release schedule.")
  in
  let jitter =
    Arg.(value & opt float 0.
         & info [ "jitter" ]
             ~doc:"Relative bandwidth fluctuation per transfer (0 = ideal links).")
  in
  let seed =
    Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"PRNG seed.")
  in
  let discipline =
    let doc =
      "Chunk-pick discipline: 'random' (uniform useful chunk, single-draw), \
       'oracle' (reservoir scan, bit-compatible with 'bmp simulate'), or \
       'inorder' (per-neighbor FIFO queues, lowest useful chunk first)."
    in
    Arg.(value & opt string "random" & info [ "discipline" ] ~docv:"NAME" ~doc)
  in
  let no_dedup =
    Arg.(value & flag
         & info [ "no-dedup" ]
             ~doc:"Allow a chunk already in flight toward a receiver to be \
                   picked again (duplicates are discarded on arrival).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Write the canonical single-line JSON metrics record.")
  in
  let run path chunks streaming jitter seed discipline no_dedup metrics_out =
    if chunks < 1 then die "--chunks must be >= 1";
    if jitter < 0. then die "--jitter must be >= 0";
    let discipline =
      match Stream.Dataplane.discipline_of_name discipline with
      | Some d -> d
      | None ->
        die (Printf.sprintf
               "unknown discipline %S (random, oracle or inorder)" discipline)
    in
    let inst = read_instance path in
    let rate, scheme =
      or_invalid (fun () -> Broadcast.Low_degree.build_optimal inst)
    in
    let csr = Broadcast.Scheme.snapshot scheme in
    let config =
      {
        Stream.Dataplane.default_config with
        chunks;
        streaming;
        jitter;
        seed;
        discipline;
        dedup_inflight = not no_dedup;
      }
    in
    let r = Stream.Dataplane.run ~config csr ~rate in
    let module D = Stream.Dataplane in
    Printf.printf "overlay rate           : %.6f\n" rate;
    Printf.printf "nodes / arcs           : %d / %d\n"
      (Flowgraph.Csr.node_count csr) (Flowgraph.Csr.edge_count csr);
    Printf.printf "delivered all chunks   : %b\n" r.D.delivered_all;
    Printf.printf "completion time        : %.3f (ideal %.3f)\n"
      r.D.completion_time
      (float_of_int chunks /. rate);
    Printf.printf "achieved rate          : %.6f (efficiency %.4f)\n"
      r.D.achieved_rate r.D.efficiency;
    Printf.printf "events / transfers     : %d / %d (%d duplicates)\n"
      r.D.events r.D.transfers r.D.duplicates;
    Printf.printf "delay p50/p90/p99/max  : %.3f / %.3f / %.3f / %.3f\n"
      r.D.delay.D.p50 r.D.delay.D.p90 r.D.delay.D.p99 r.D.delay.D.max;
    Printf.printf "startup p50/p99/max    : %.3f / %.3f / %.3f\n"
      r.D.startup.D.p50 r.D.startup.D.p99 r.D.startup.D.max;
    Printf.printf "send queues peak/mean  : %d / %.4f\n"
      r.D.peak_queue r.D.mean_queue;
    (match metrics_out with
     | None -> ()
     | Some out ->
       let json =
         D.metrics_to_json ~config ~nodes:(Flowgraph.Csr.node_count csr)
           ~edges:(Flowgraph.Csr.edge_count csr) ~rate r
       in
       write_file out (json ^ "\n");
       Printf.printf "wrote %s\n" out);
    if not r.D.delivered_all then fail "broadcast did not complete"
  in
  let info =
    Cmd.info "run"
      ~doc:"Build the optimal low-degree overlay and stream chunks over it \
            with the flat-arena event-heap dataplane."
  in
  Cmd.v info
    Term.(const run $ instance_arg $ chunks $ streaming $ jitter $ seed
          $ discipline $ no_dedup $ metrics_out)

let stream_cmd =
  let doc =
    "Streaming dataplane: per-neighbor-queue broadcast dynamics at scale."
  in
  Cmd.group (Cmd.info "stream" ~doc) [ stream_run_cmd ]

(* scheme: persistent artifacts *)

let read_scheme path =
  match Broadcast.Scheme.of_json (read_text path) with
  | Ok s -> s
  | Error msg -> die (Printf.sprintf "cannot load scheme %s: %s" path msg)

let write_scheme path s =
  let doc = Broadcast.Scheme.to_json s ^ "\n" in
  if path = "-" then print_string doc
  else begin
    write_file path doc;
    Printf.printf "wrote %s\n" path
  end

let scheme_file_arg =
  let doc = "Scheme file (bmp-scheme JSON); '-' for stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCHEME" ~doc)

let scheme_build_cmd =
  let kind =
    let doc =
      "Construction: 'acyclic' (Theorem 4.1), 'cyclic' (Theorem 5.2, open-only) \
       or 'min-depth' (depth-optimized acyclic)."
    in
    Arg.(value
         & opt (enum [ ("acyclic", `Acyclic); ("cyclic", `Cyclic); ("min-depth", `Min_depth) ]) `Acyclic
         & info [ "k"; "kind" ] ~doc)
  in
  let rate_arg =
    let doc = "Target rate (default: the family's optimal rate, with back-off)." in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"RATE" ~doc)
  in
  let out =
    let doc = "Output scheme file ('-' for stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let run path kind rate out =
    let inst = read_instance path in
    let word_at rate =
      match Broadcast.Greedy.test inst ~rate with
      | Some word -> word
      | None -> fail (Printf.sprintf "rate %g is not feasible for this instance" rate)
    in
    let scheme =
      or_invalid @@ fun () ->
      match kind with
      | `Acyclic -> begin
        match rate with
        | None -> snd (Broadcast.Low_degree.build_optimal inst)
        | Some rate -> Broadcast.Low_degree.build inst ~rate (word_at rate)
      end
      | `Min_depth -> begin
        match rate with
        | None -> snd (Broadcast.Depth.build_optimal inst)
        | Some rate -> Broadcast.Depth.build inst ~rate (word_at rate)
      end
      | `Cyclic ->
        if inst.Platform.Instance.m > 0 then
          die "cyclic construction requires open nodes only";
        Broadcast.Cyclic_open.build ?t:rate inst
    in
    write_scheme out scheme
  in
  let info =
    Cmd.info "build" ~doc:"Build a scheme artifact from an instance and serialize it."
  in
  Cmd.v info Term.(const run $ instance_arg $ kind $ rate_arg $ out)

let print_scheme_report s =
  let r = Broadcast.Scheme.report s in
  Format.printf "%a@." Broadcast.Scheme.pp s;
  Printf.printf "throughput (oracle)  : %.6f\n" r.Broadcast.Verify.throughput;
  Printf.printf "achieves target rate : %b\n" (Broadcast.Scheme.achieves_target s);
  Printf.printf "acyclic              : %b\n" r.Broadcast.Verify.acyclic;
  Printf.printf "bandwidth / firewall / caps ok: %b / %b / %b\n"
    r.Broadcast.Verify.bandwidth_ok r.Broadcast.Verify.firewall_ok
    r.Broadcast.Verify.bin_ok

let scheme_check_cmd =
  let reserialize =
    let doc =
      "Re-serialize the loaded scheme to $(docv) (canonical bytes — identical \
       to a fresh serialization of the same artifact)."
    in
    Arg.(value & opt (some string) None & info [ "reserialize" ] ~docv:"FILE" ~doc)
  in
  let run path reserialize =
    let s = read_scheme path in
    print_scheme_report s;
    Option.iter (fun out -> write_scheme out s) reserialize;
    if not (Broadcast.Scheme.achieves_target s) then exit 1
  in
  let info =
    Cmd.info "check"
      ~doc:"Load a scheme file, re-verify it against the max-flow oracle, and exit \
            non-zero if it misses its target rate."
  in
  Cmd.v info Term.(const run $ scheme_file_arg $ reserialize)

let scheme_show_cmd =
  let edges = Arg.(value & flag & info [ "edges" ] ~doc:"Print the overlay edges.") in
  let run path edges =
    let s = read_scheme path in
    print_scheme_report s;
    let degrees = Broadcast.Metrics.scheme_report s in
    Printf.printf "max degree excess    : %d\n" degrees.Broadcast.Metrics.max_excess;
    (match (Broadcast.Scheme.provenance s).Broadcast.Scheme.degree_bound with
    | Some bound ->
      Printf.printf "promised excess bound: +%d (%s)\n" bound
        (if degrees.Broadcast.Metrics.max_excess <= bound then "kept" else "VIOLATED")
    | None -> print_string "promised excess bound: none\n");
    if Broadcast.Scheme.is_acyclic s then
      Printf.printf "depth                : %d\n" (Broadcast.Metrics.scheme_depth s);
    let node, cut = Broadcast.Metrics.scheme_bottleneck s in
    Printf.printf "bottleneck           : C%d at %.6f\n" node cut;
    if edges then
      Flowgraph.Graph.iter_edges
        (fun ~src ~dst w -> Printf.printf "  C%d -> C%d : %.6f\n" src dst w)
        (Broadcast.Scheme.graph s)
  in
  let info = Cmd.info "show" ~doc:"Summarize a scheme file (provenance, metrics, degrees)." in
  Cmd.v info Term.(const run $ scheme_file_arg $ edges)

let scheme_export_cmd =
  let dot_out =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write the overlay as a Graphviz file.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE" ~doc:"Write the bare graph as legacy JSON.")
  in
  let run path dot json =
    let s = read_scheme path in
    if dot = None && json = None then die "nothing to do: pass --dot and/or --json";
    let inst = Broadcast.Scheme.instance s in
    let node_class v =
      if v = 0 then Some "source"
      else if Platform.Instance.is_guarded inst v then Some "guarded"
      else Some "open"
    in
    let graph = Broadcast.Scheme.graph s in
    let emit out content =
      if out = "-" then print_string content
      else begin
        write_file out content;
        Printf.printf "wrote %s\n" out
      end
    in
    Option.iter (fun out -> emit out (Flowgraph.Export.to_dot ~node_class graph)) dot;
    Option.iter
      (fun out -> emit out (Flowgraph.Export.to_json graph ^ "\n"))
      json
  in
  let info = Cmd.info "export" ~doc:"Convert a scheme file to Graphviz or bare-graph JSON." in
  Cmd.v info Term.(const run $ scheme_file_arg $ dot_out $ json_out)

let scheme_cmd =
  let doc = "Build, verify, inspect and convert persistent scheme artifacts." in
  Cmd.group (Cmd.info "scheme" ~doc)
    [ scheme_build_cmd; scheme_check_cmd; scheme_show_cmd; scheme_export_cmd ]

(* churn: fault injection *)

let read_trace path =
  match Churn.Trace.of_json (read_text path) with
  | Ok t -> t
  | Error msg -> die (Printf.sprintf "cannot load trace %s: %s" path msg)

let trace_events_arg =
  Arg.(value & opt int 100
       & info [ "events" ] ~docv:"N" ~doc:"Number of churn events (generated traces).")

let trace_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed for trace generation.")

(* Self-healing options shared by `churn run` and `tracker serve`. *)

let policy_arg =
  Arg.(value
       & opt (enum [ ("patch", `Patch); ("rebuild", `Rebuild); ("adaptive", `Adaptive) ])
           `Adaptive
       & info [ "policy" ] ~doc:"Self-healing policy: patch, rebuild or adaptive.")

let min_ratio_arg =
  Arg.(value & opt float 0.5
       & info [ "min-ratio" ] ~docv:"R"
           ~doc:"Adaptive: rebuild when rate/optimal falls below R.")

let degree_slack_arg =
  Arg.(value & opt int 4
       & info [ "degree-slack" ] ~docv:"D"
           ~doc:"Adaptive: rebuild when degree drift exceeds the promised \
                 bound by more than D.")

let headroom_arg =
  Arg.(value & opt float 0.9
       & info [ "headroom" ] ~docv:"H"
           ~doc:"Build the initial overlay at H times the optimal rate.")

let rebuild_headroom_arg =
  Arg.(value & opt float 0.8
       & info [ "rebuild-headroom" ] ~docv:"H"
           ~doc:"Policy-ordered rebuilds target H times the optimum (spare \
                 capacity for later patches).")

let audit_conv =
  let parse s =
    match Churn.Audit.of_name s with
    | Some l -> Ok l
    | None ->
      Error
        (`Msg
           (Printf.sprintf
              "unknown audit level %S (off|on|check|strict|certificate[:K])" s))
  in
  Arg.conv
    (parse, fun ppf l -> Format.pp_print_string ppf (Churn.Audit.level_name l))

let audit_arg =
  Arg.(value & opt audit_conv Churn.Audit.Check
       & info [ "audit" ]
           ~doc:"Invariant auditing: $(b,off), $(b,on) (default: the full \
                 per-event scan), $(b,strict) (adds the max-flow \
                 cross-check) or $(b,certificate[:K]) (delta-scoped fast \
                 path re-checking only what each event disturbed, with a \
                 full strict audit every K events as a backstop; default \
                 K = 64, 0 = never). Never changes the replay's results.")

let engine_conv =
  let parse s =
    match Churn.Audit.engine_of_name s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown engine %S (full|incremental)" s))
  in
  Arg.conv
    (parse, fun ppf e -> Format.pp_print_string ppf (Churn.Audit.engine_name e))

let engine_arg ~default ~doc =
  Arg.(value & opt engine_conv default & info [ "engine" ] ~docv:"ENGINE" ~doc)

let check_healing_opts ~min_ratio ~degree_slack ~headroom ~rebuild_headroom =
  if not (headroom > 0. && headroom <= 1.) then die "--headroom must lie in (0, 1]";
  if not (rebuild_headroom > 0. && rebuild_headroom <= 1.) then
    die "--rebuild-headroom must lie in (0, 1]";
  if not (min_ratio >= 0. && min_ratio <= 1.) then
    die "--min-ratio must lie in [0, 1]";
  if degree_slack < 0 then die "--degree-slack must be >= 0"

let policy_of ~min_ratio ~degree_slack = function
  | `Patch -> Churn.Policy.Always_patch
  | `Rebuild -> Churn.Policy.Always_rebuild
  | `Adaptive -> Churn.Policy.Adaptive { min_ratio; degree_slack }

(* The headroomed initial overlay both churn replays and the tracker
   serve: built at [headroom] times the acyclic optimum. *)
let healing_overlay inst ~headroom =
  or_invalid @@ fun () ->
  let t, _ = Broadcast.Greedy.optimal_acyclic inst in
  Broadcast.Overlay.build ~rate:(t *. headroom) inst

let churn_gen_trace_cmd =
  let max_batch =
    Arg.(value & opt int 5
         & info [ "max-batch" ] ~docv:"K" ~doc:"Largest correlated failure batch.")
  in
  let max_flash =
    Arg.(value & opt int 8
         & info [ "max-flash" ] ~docv:"K" ~doc:"Largest flash-crowd join burst.")
  in
  let out =
    Arg.(value & opt string "-"
         & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output trace file ('-' for stdout).")
  in
  let run events seed max_batch max_flash out =
    if events < 0 then die "--events must be >= 0";
    if max_batch < 1 then die "--max-batch must be >= 1";
    if max_flash < 1 then die "--max-flash must be >= 1";
    let mix = { Churn.Trace.default_mix with max_batch; max_flash } in
    let trace =
      Churn.Trace.gen ~mix ~events (Prng.Splitmix.create (Int64.of_int seed))
    in
    let doc = Churn.Trace.to_json trace ^ "\n" in
    if out = "-" then print_string doc
    else begin
      write_file out doc;
      Printf.printf "wrote %s (%d events)\n" out (Churn.Trace.length trace)
    end
  in
  let info =
    Cmd.info "gen-trace"
      ~doc:"Generate a seeded adversarial churn trace (bmp-trace JSON)."
  in
  Cmd.v info
    Term.(const run $ trace_events_arg $ trace_seed_arg $ max_batch $ max_flash $ out)

let churn_run_cmd =
  let trace_file =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Replay this bmp-trace file instead of generating one from \
                   $(b,--events)/$(b,--seed).")
  in
  let timeline_arg =
    Arg.(value & flag & info [ "timeline" ] ~doc:"Print one line per event.")
  in
  let final_scheme_arg =
    Arg.(value & opt (some string) None
         & info [ "final-scheme" ] ~docv:"FILE"
             ~doc:"Write the post-replay scheme artifact (bmp-scheme JSON) to \
                   $(docv) ('-' for stdout).")
  in
  let run path trace_file events seed policy min_ratio degree_slack headroom
      rebuild_headroom audit engine timeline final_scheme =
    check_healing_opts ~min_ratio ~degree_slack ~headroom ~rebuild_headroom;
    let inst = read_instance path in
    let trace =
      match trace_file with
      | Some f -> read_trace f
      | None ->
        if events < 0 then die "--events must be >= 0";
        Churn.Trace.gen ~events (Prng.Splitmix.create (Int64.of_int seed))
    in
    let policy = policy_of ~min_ratio ~degree_slack policy in
    let overlay = healing_overlay inst ~headroom in
    let on_event (r : Churn.Engine.record) =
      if timeline then
        Printf.printf
          "%4d %-11s %-7s n=%-4d rate=%-9.3f opt=%-9.3f ratio=%.3f edges=%-4d \
           churn=%-6d excess=%-3d rebuilds=%d\n"
          r.Churn.Engine.index
          (Churn.Trace.label r.Churn.Engine.event)
          (match r.Churn.Engine.action with
          | Churn.Engine.Patched -> "patch"
          | Churn.Engine.Rebuilt -> "rebuild"
          | Churn.Engine.Skipped -> "skip")
          r.Churn.Engine.size r.Churn.Engine.rate r.Churn.Engine.optimal
          r.Churn.Engine.ratio r.Churn.Engine.churn_edges
          r.Churn.Engine.cumulative_churn r.Churn.Engine.max_excess
          r.Churn.Engine.rebuilds
    in
    match
      Churn.Engine.run ~policy ~audit ~engine ~rebuild_headroom ~on_event
        overlay trace
    with
    | exception Churn.Audit.Violation { index; what } ->
      Printf.eprintf "audit violation at event %d: %s\n" index what;
      exit 1
    | result ->
      let s = result.Churn.Engine.summary in
      Printf.printf "policy          : %s\n" (Churn.Policy.name policy);
      Printf.printf "audit           : %s\n" (Churn.Audit.level_name audit);
      Printf.printf "engine          : %s\n" (Churn.Audit.engine_name engine);
      Printf.printf "events          : %d (%d applied, %d skipped)\n" s.Churn.Engine.events
        s.Churn.Engine.applied s.Churn.Engine.skipped;
      Printf.printf "rebuilds        : %d\n" s.Churn.Engine.rebuilds;
      Printf.printf "edge churn      : %d\n" s.Churn.Engine.total_churn;
      Printf.printf "rate ratio      : min %.4f, mean %.4f\n" s.Churn.Engine.min_ratio
        s.Churn.Engine.mean_ratio;
      Printf.printf "final overlay   : %d nodes, rate %.6f (optimal %.6f)\n"
        s.Churn.Engine.final_size s.Churn.Engine.final_rate
        s.Churn.Engine.final_optimal;
      Option.iter
        (fun out ->
          write_scheme out
            (Broadcast.Overlay.scheme result.Churn.Engine.overlay))
        final_scheme
  in
  let info =
    Cmd.info "run"
      ~doc:"Replay a churn trace against an instance's overlay under a \
            self-healing policy, auditing every event."
  in
  let engine =
    engine_arg ~default:Churn.Audit.Full
      ~doc:
        "Rate-maintenance engine: $(b,full) (stateless, default) or \
         $(b,incremental) (warm-start max-flow threaded across events; with \
         $(b,--audit strict) every event differentially cross-checks it \
         against a from-scratch solve). The knob never changes the replay's \
         results."
  in
  Cmd.v info
    Term.(const run $ instance_arg $ trace_file $ trace_events_arg $ trace_seed_arg
          $ policy_arg $ min_ratio_arg $ degree_slack_arg $ headroom_arg
          $ rebuild_headroom_arg $ audit_arg $ engine $ timeline_arg
          $ final_scheme_arg)

let churn_cmd =
  let doc = "Fault injection: generate churn traces and replay them under self-healing policies." in
  Cmd.group (Cmd.info "churn" ~doc) [ churn_gen_trace_cmd; churn_run_cmd ]

(* tracker: long-running daemon serving NDJSON requests *)

let tracker_serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix domain socket and serve one connection \
                   instead of stdin/stdout.")
  in
  let batch_arg =
    Arg.(value & opt int 1
         & info [ "batch" ] ~docv:"N"
             ~doc:"Coalesce up to N queued mutations into one repair + one \
                   audit (1 = serve every request immediately).")
  in
  let window_arg =
    Arg.(value & opt float 50.
         & info [ "window-ms" ] ~docv:"MS"
             ~doc:"Admission window: flush a partial batch after MS \
                   milliseconds without new input.")
  in
  let max_line_arg =
    Arg.(value & opt int 65536
         & info [ "max-line" ] ~docv:"BYTES"
             ~doc:"Answer request lines longer than BYTES with an \
                   'oversized' error response.")
  in
  let state_out_arg =
    Arg.(value & opt (some string) None
         & info [ "state-out" ] ~docv:"FILE"
             ~doc:"On exit, write the final scheme artifact (bmp-scheme \
                   JSON) to $(docv).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"On exit, write the committed (coalesced) event trace \
                   (bmp-trace JSON) to $(docv) — replaying it offline with \
                   'bmp churn run --trace' reproduces the served scheme.")
  in
  let deterministic_arg =
    Arg.(value & flag
         & info [ "deterministic" ]
             ~doc:"Zero every latency_us field so the response stream is \
                   byte-deterministic (golden tests).")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"DIR"
             ~doc:"Write-ahead journal + checkpoint directory: every \
                   committed batch is sealed on disk before its responses \
                   are sent, so a crash loses at most the unflushed tail \
                   (see --sync).")
  in
  let restore_arg =
    Arg.(value & flag
         & info [ "restore" ]
             ~doc:"Recover the session from --journal before serving: load \
                   the newest valid checkpoint, replay the journal tail \
                   through the engine, resume sequence numbering. Without \
                   this flag a stale journal in the directory is wiped.")
  in
  let sync_arg =
    Arg.(value & opt string "batch"
         & info [ "sync" ] ~docv:"WHEN"
             ~doc:"Journal fsync cadence: $(b,every) record, once per \
                   $(b,batch) (default), or $(b,none) (leave flushing to \
                   the OS; a crash may lose recent batches but never \
                   corrupts the recovered prefix).")
  in
  let checkpoint_every_arg =
    Arg.(value & opt int 8
         & info [ "checkpoint-every" ] ~docv:"K"
             ~doc:"Write a checkpoint every K committed batches (0 \
                   disables periodic checkpoints; one is still written on \
                   graceful shutdown). Checkpoints bound recovery replay.")
  in
  let idle_timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "idle-timeout" ] ~docv:"SECS"
             ~doc:"Evict a connected client after SECS seconds without a \
                   received byte, so a silent connection cannot pin the \
                   sequential accept loop. Default: no eviction.")
  in
  let run path socket batch window_ms max_line state_out trace_out
      deterministic journal restore sync checkpoint_every idle_timeout
      policy min_ratio degree_slack headroom rebuild_headroom audit engine =
    check_healing_opts ~min_ratio ~degree_slack ~headroom ~rebuild_headroom;
    if batch < 1 then die "--batch must be >= 1";
    if not (window_ms >= 0.) then die "--window-ms must be >= 0";
    if max_line < 16 then die "--max-line must be >= 16";
    if checkpoint_every < 0 then die "--checkpoint-every must be >= 0";
    if restore && journal = None then die "--restore requires --journal";
    (match idle_timeout with
    | Some s when not (s > 0.) -> die "--idle-timeout must be > 0"
    | _ -> ());
    let sync =
      match Tracker.Journal.sync_of_name sync with
      | Some s -> s
      | None -> die "--sync must be one of: every, batch, none"
    in
    let inst = read_instance path in
    let overlay = healing_overlay inst ~headroom in
    let config =
      {
        Tracker.Session.policy = policy_of ~min_ratio ~degree_slack policy;
        audit;
        engine;
        rebuild_headroom = Some rebuild_headroom;
        batch;
        max_line;
        clock =
          (if deterministic then fun () -> 0. else Unix.gettimeofday);
      }
    in
    (* With SIGPIPE ignored a dead client surfaces as EPIPE on write,
       which the daemon absorbs per-connection instead of the process
       dying mid-session. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* Chaos-harness hook: tear the WAL on the n-th record append. *)
    let crash_after_appends =
      Option.bind (Sys.getenv_opt "BMP_TRACKER_CRASH_AFTER_APPENDS")
        int_of_string_opt
    in
    let journal, recovered =
      match journal with
      | None -> (None, None)
      | Some dir ->
        let j, recovered =
          or_die @@ fun () ->
          Tracker.Journal.start ~dir ~sync ~checkpoint_every
            ?crash_after_appends ~restore ()
        in
        (Some j, recovered)
    in
    let session =
      or_die @@ fun () ->
      Tracker.Session.create ?journal ?recovered config overlay
    in
    (match recovered with
    | Some r ->
      let c = Tracker.Session.counters session in
      Printf.eprintf
        "tracker: restored from journal (%s checkpoint, %d batches \
         replayed, %d events committed)\n\
         %!"
        (match r.Tracker.Journal.checkpoint with
        | Some _ -> "with"
        | None -> "no")
        (List.length r.Tracker.Journal.tail)
        c.Tracker.Session.events
    | None -> ());
    let stopping = ref false in
    let on_signal = Sys.Signal_handle (fun _ -> stopping := true) in
    Sys.set_signal Sys.sigint on_signal;
    Sys.set_signal Sys.sigterm on_signal;
    let serve input output =
      Tracker.Daemon.serve ~window_s:(window_ms /. 1000.)
        ?idle_timeout_s:idle_timeout
        ~stop:(fun () -> !stopping)
        session ~input ~output
    in
    (* A failed WAL append/checkpoint means batches acked from here on
       would be dropped by the next --restore: die instead of serving
       with broken durability (skipping the final checkpoint below —
       the journal state no longer matches the file). *)
    (try
       match socket with
       | None -> serve Unix.stdin stdout
       | Some path ->
         or_die @@ fun () ->
         let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.unlink path with Unix.Unix_error _ -> ());
         Unix.bind sock (Unix.ADDR_UNIX path);
         Unix.listen sock 1;
         Printf.eprintf "tracker: listening on %s\n%!" path;
         (* Sequential multi-client: when a client disconnects, the
            daemon accepts the next one against the same live session,
            so scheme state and sequence numbering persist across
            connections. Only a shutdown request or a signal ends the
            loop. *)
         let accept () =
           match Unix.accept sock with
           | exception Unix.Unix_error (Unix.EINTR, _, _) ->
             None (* interrupted while waiting for a client: clean exit *)
           | conn, _ ->
             let out = Unix.out_channel_of_descr conn in
             Some
               ( conn,
                 out,
                 fun () ->
                   (try flush out with Sys_error _ -> ());
                   (try Unix.close conn with Unix.Unix_error _ -> ()) )
         in
         Tracker.Daemon.serve_loop ~window_s:(window_ms /. 1000.)
           ?idle_timeout_s:idle_timeout
           ~stop:(fun () -> !stopping)
           session ~accept;
         (try Unix.close sock with Unix.Unix_error _ -> ());
         (try Unix.unlink path with Unix.Unix_error _ -> ())
     with Tracker.Session.Journal_failure e ->
       Printf.eprintf
         "error: tracker journal write failed (%s); committed state is \
          only durable up to the last sealed batch — restart with \
          --restore\n\
          %!"
         (Printexc.to_string e);
       exit 1);
    (* Graceful drain: the serve loop above already flushed the pending
       admission window on its way out (EOF, shutdown, or the
       SIGINT/SIGTERM stop flag), so the final checkpoint captures every
       admitted request and a --restore replays nothing. *)
    (match journal with
    | Some j ->
      (try Tracker.Session.checkpoint session
       with Tracker.Session.Journal_failure e ->
         (* Sealed WAL batches are still durable; only the replay-bound
            shortcut is lost — but a write just failed, so report it. *)
         Printf.eprintf
           "error: final checkpoint failed (%s); --restore will replay \
            the journal tail\n\
            %!"
           (Printexc.to_string e);
         Tracker.Journal.close j;
         exit 1);
      Tracker.Journal.close j
    | None -> ());
    (* Final snapshots; stdout stays pure NDJSON, reporting goes to
       stderr. *)
    Option.iter
      (fun out ->
        write_file out
          (Broadcast.Scheme.to_json
             (Broadcast.Overlay.scheme (Tracker.Session.live session))
          ^ "\n");
        Printf.eprintf "tracker: wrote %s\n" out)
      state_out;
    Option.iter
      (fun out ->
        write_file out
          (Churn.Trace.to_json (Tracker.Session.executed session) ^ "\n");
        Printf.eprintf "tracker: wrote %s\n" out)
      trace_out;
    let c = Tracker.Session.counters session in
    Printf.eprintf
      "tracker: served %d requests (%d events in %d batches, %d errors, %d \
       rollbacks, %d queries)\n"
      c.Tracker.Session.requests c.Tracker.Session.events
      c.Tracker.Session.batches c.Tracker.Session.errors
      c.Tracker.Session.rollbacks c.Tracker.Session.queries
  in
  let info =
    Cmd.info "serve"
      ~doc:"Own a live scheme and serve NDJSON join/leave/degrade/restore \
            requests until EOF, shutdown or SIGINT; drains the queue and \
            snapshots the final state on exit."
  in
  let engine =
    engine_arg ~default:Churn.Audit.Incremental
      ~doc:
        "Rate-maintenance engine: $(b,incremental) (default — warm-start \
         max-flow, steady-state cost is the per-request delta) or $(b,full) \
         (stateless re-derivation)."
  in
  Cmd.v info
    Term.(const run $ instance_arg $ socket_arg $ batch_arg $ window_arg
          $ max_line_arg $ state_out_arg $ trace_out_arg $ deterministic_arg
          $ journal_arg $ restore_arg $ sync_arg $ checkpoint_every_arg
          $ idle_timeout_arg
          $ policy_arg $ min_ratio_arg $ degree_slack_arg $ headroom_arg
          $ rebuild_headroom_arg $ audit_arg $ engine)

let tracker_cmd =
  let doc = "Long-running tracker daemon: a live scheme served over NDJSON." in
  Cmd.group (Cmd.info "tracker" ~doc) [ tracker_serve_cmd ]

let () =
  let doc = "bounded multi-port broadcast: overlays, bounds and experiments" in
  let info = Cmd.info "bmp" ~version:"1.0.0" ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [ solve_cmd; generate_cmd; exp_cmd; exp_all_cmd; simulate_cmd;
           stream_cmd; trees_cmd; scheme_cmd; churn_cmd; tracker_cmd;
           selfcheck_cmd ])
  in
  (* cmdliner reports its own usage errors (unknown subcommand, bad flag
     value) as 124; the bmp contract is exit 2 for those. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
