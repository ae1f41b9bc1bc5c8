(* In-process half of the benchmark; perfbench/run.py drives it.

     bmpbench stream --platform-seed P --seed S --nodes N --chunks C
                     --work DIR --trace SPANS
     bmpbench replay --instance F --requests REQ --responses RESP
                     --trace-in T --state S --batch B --work DIR
                     --spans SPANS

   [stream] draws an instance from P and streams C chunks over it, with
   chunk picks drawn from S, the way `bmp stream run --streaming` does:
   Low_degree.build_optimal, Scheme.snapshot, Scheme.report,
   Stream.Dataplane.run. It runs that pipeline once untraced, then once
   more as its separate steps, each inside a span, and checks that the
   traced one streams exactly what the untraced one streamed.

   [replay] re-executes a finished tracker run in-process. It mirrors
   what Session.flush and Engine.step do, in their order, calling the
   public function of each layer inside a span, and checks that the
   mirror reproduces the daemon's responses (latency aside) and its
   --state-out scheme byte for byte. Before that it serves the same
   request lines through an untraced Tracker.Session, whose wall time is
   the base of the tracing overhead.

   Spans are kept in memory and written once, at the end. Every check
   failure exits with status 1; the result is one JSON object on the
   last line of standard output. *)

open Broadcast
module Trace = Churn.Trace
module Engine = Churn.Engine
module Json = Flowgraph.Json
module Incremental = Flowgraph.Maxflow.Incremental

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bmpbench: " ^ msg);
      exit 1)
    fmt

let now = Unix.gettimeofday

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> output_string oc s)

let read_instance path =
  match Platform.Instance.of_string (read_file path) with
  | Ok inst -> fst (Platform.Instance.normalize inst)
  | Error msg -> fail "cannot parse %s: %s" path msg

(* Spans: name, start, end, parent span, the request seq or batch id the
   span serves, and the minor words allocated inside it. *)
module Spans = struct
  type span = {
    name : string;
    parent : int;
    ref_id : int;
    start : float;
    mutable stop : float;
    mutable words : float;
  }

  let spans : span array ref = ref [||]
  let count = ref 0

  (* Times are written in ns since this instant, which keeps them exact
     in a float. *)
  let epoch = now ()

  let open_ ?(parent = -1) ?(ref_id = 0) name =
    if !count = Array.length !spans then begin
      let bigger =
        Array.make
          (max 1024 (2 * !count))
          { name = ""; parent = -1; ref_id = 0; start = 0.; stop = 0.; words = 0. }
      in
      Array.blit !spans 0 bigger 0 !count;
      spans := bigger
    end;
    let i = !count in
    !spans.(i) <-
      { name; parent; ref_id; start = now (); stop = 0.; words = Gc.minor_words () };
    incr count;
    i

  let close i =
    let s = !spans.(i) in
    s.stop <- now ();
    s.words <- Gc.minor_words () -. s.words

  let with_ ?parent ?ref_id name f =
    let i = open_ ?parent ?ref_id name in
    Fun.protect ~finally:(fun () -> close i) f

  (* One tab-separated line per span: index, parent, name, start_ns,
     end_ns, minor words, ref id. *)
  let write path =
    let b = Buffer.create (64 * !count) in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      Printf.bprintf b "%d\t%d\t%s\t%.0f\t%.0f\t%.0f\t%d\n" i s.parent s.name
        ((s.start -. epoch) *. 1e9) ((s.stop -. epoch) *. 1e9) s.words s.ref_id
    done;
    write_file path (Buffer.contents b)
end

let json_obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" k v) fields)
  ^ "}"

let jfloat v = Printf.sprintf "%.17g" v
let jint = string_of_int

(* ---------- stream ---------- *)

let stream ~platform_seed ~seed ~nodes ~chunks ~work ~spans_path =
  let inst_path = Filename.concat work "stream.instance" in
  let spec =
    { Platform.Generator.total = nodes; p_open = 0.7; dist = Prng.Dist.unif100 }
  in
  write_file inst_path
    (Platform.Instance.to_string
       (Platform.Generator.generate spec
          (Prng.Splitmix.create (Int64.of_int platform_seed))));
  let config =
    {
      Stream.Dataplane.default_config with
      chunks;
      streaming = true;
      seed = Int64.of_int seed;
    }
  in
  let open Stream.Dataplane in
  (* The untraced pipeline is the reference: the traced one calls the
     same functions step by step and must stream the same broadcast. *)
  Gc.compact ();
  let t0 = now () in
  let inst = read_instance inst_path in
  let rate, scheme = Low_degree.build_optimal inst in
  let csr = Scheme.snapshot scheme in
  let report = Scheme.report scheme in
  let r = run ~config csr ~rate in
  let untraced_wall = now () -. t0 in
  if not (Scheme.achieves_target scheme && report.Verify.acyclic
          && report.Verify.bandwidth_ok && report.Verify.firewall_ok)
  then fail "stream: the built scheme does not verify at its target rate";
  if not r.delivered_all then fail "stream: broadcast did not complete";
  Gc.compact ();
  let root = Spans.open_ "pipeline" in
  let span name f = Spans.with_ ~parent:root name f in
  let inst' = span "instance.read" (fun () -> read_instance inst_path) in
  let t, word =
    span "greedy.optimal_acyclic" (fun () -> Greedy.optimal_acyclic inst')
  in
  let rate' = t *. (1. -. (4. *. Util.eps)) in
  let scheme' =
    span "low_degree.build" (fun () -> Low_degree.build inst' ~rate:rate' word)
  in
  let csr' = span "scheme.snapshot" (fun () -> Scheme.snapshot scheme') in
  ignore (span "scheme.report" (fun () -> Scheme.report scheme'));
  let w0 = Gc.minor_words () in
  let r' = span "dataplane.run" (fun () -> run ~config csr' ~rate:rate') in
  let words = Gc.minor_words () -. w0 in
  Spans.close root;
  if Scheme.to_json scheme' <> Scheme.to_json scheme || rate' <> rate then
    fail "stream: traced pipeline built a different scheme";
  if r'.events <> r.events || r'.completion_time <> r.completion_time then
    fail "stream: traced run streamed %d events in %.17g, untraced %d in %.17g"
      r'.events r'.completion_time r.events r.completion_time;
  Spans.write spans_path;
  print_endline
    (json_obj
       [
         ("untraced_wall_s", jfloat untraced_wall);
         ("events", jint r.events);
         ("completion_time", jfloat r.completion_time);
         ("traced_events", jint r'.events);
         ("traced_minor_words", jfloat words);
         ("traced_transfers", jint r'.transfers);
         ("traced_duplicates", jint r'.duplicates);
       ])

(* ---------- replay ---------- *)

(* Private helpers of Churn.Engine and Tracker.Session, restated: how a
   pick resolves, how a correlated failure picks its casualties, how two
   repair deltas compose, and how a flush coalesces its queue. The
   byte-for-byte comparison against the daemon's responses and state
   is what keeps these in step with the library. *)
let min_population = 3
let resolve_pick ~size pick = 1 + (pick mod (size - 1))

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

let compose_delta (d1 : Repair.delta) ~map (d2 : Repair.delta) =
  if d1.Repair.full || d2.Repair.full then Repair.full_delta
  else
    let touched =
      List.sort_uniq compare
        (Array.fold_left
           (fun acc v -> if map.(v) >= 0 then map.(v) :: acc else acc)
           (Array.to_list d2.Repair.touched)
           d1.Repair.touched)
    in
    {
      d2 with
      Repair.identity = d1.Repair.identity && d2.Repair.identity;
      touched = Array.of_list touched;
    }

let kind (e : Trace.event) =
  match e with Trace.Leave _ -> `L | Trace.Join _ -> `J | _ -> `O

(* Runs of >= 2 consecutive leaves (joins) become one Fail_batch
   (Flash_crowd); returns (member seqs, event) groups in order. *)
let coalesce (members : (int * Trace.event) list) =
  let close groups run =
    match List.rev run with
    | [] -> groups
    | [ (seq, e) ] -> ([ seq ], e) :: groups
    | ((_, first) :: _) as run ->
      let event =
        match first with
        | Trace.Leave _ ->
          Trace.Fail_batch
            {
              picks =
                List.map
                  (function _, Trace.Leave { pick } -> pick | _ -> assert false)
                  run;
            }
        | Trace.Join _ ->
          Trace.Flash_crowd
            {
              arrivals =
                List.map
                  (function
                    | _, Trace.Join { bandwidth; guarded } -> (bandwidth, guarded)
                    | _ -> assert false)
                  run;
            }
        | _ -> assert false
      in
      (List.map fst run, event) :: groups
  in
  let groups, run =
    List.fold_left
      (fun (groups, run) ((_, e) as m) ->
        match run with
        | (_, e') :: _ when kind e = kind e' && kind e <> `O -> (groups, m :: run)
        | [] -> (groups, [ m ])
        | _ -> (close groups run, [ m ]))
      ([], []) members
  in
  List.rev (close groups run)

(* The daemon's configuration at the CLI defaults of `bmp tracker serve`. *)
let headroom = 0.9
let rebuild_headroom = 0.8
let policy = Churn.Policy.Adaptive { min_ratio = 0.5; degree_slack = 4 }
let audit = Churn.Audit.Check
let checkpoint_every = 8
let max_line = 65536

(* Responses without their trailing latency field, which is the only
   part that differs between the daemon and a replay. *)
let strip_latency line =
  let key = ", \"latency_us\": " in
  let n = String.length line and k = String.length key in
  let rec last i =
    if i < 0 then line
    else if String.sub line i k = key then String.sub line 0 i
    else last (i - 1)
  in
  last (n - k)

let int_member k v =
  match Option.map Json.to_int (Json.member k v) with
  | Some (Ok i) -> Some i
  | _ -> None

type line = { seq : int; text : string; batch : int option }

let load_lines ~requests ~responses =
  let reqs =
    List.filter (( <> ) "") (String.split_on_char '\n' (read_file requests))
  in
  let resps =
    List.filter (( <> ) "") (String.split_on_char '\n' (read_file responses))
  in
  let by_seq = Hashtbl.create 1024 in
  List.iter
    (fun r ->
      match Json.parse r with
      | Error e -> fail "replay: bad response line: %s" e
      | Ok v -> (
        match int_member "seq" v with
        | None -> fail "replay: response without seq"
        | Some seq ->
          if Hashtbl.mem by_seq seq then fail "replay: seq %d answered twice" seq;
          Hashtbl.replace by_seq seq (r, int_member "batch" v)))
    resps;
  let lines =
    List.mapi
      (fun i text ->
        let seq = i + 1 in
        match Hashtbl.find_opt by_seq seq with
        | None -> fail "replay: seq %d has no response" seq
        | Some (_, batch) -> { seq; text; batch })
      reqs
  in
  if Hashtbl.length by_seq <> List.length lines then
    fail "replay: %d responses for %d requests" (Hashtbl.length by_seq)
      (List.length lines);
  (lines, fun seq -> fst (Hashtbl.find by_seq seq))

(* Consecutive mutation lines sharing a batch id, and lone control
   lines, in seq order. *)
let segments lines =
  let rec go acc cur = function
    | [] -> List.rev (match cur with [] -> acc | c -> `Batch (List.rev c) :: acc)
    | l :: rest -> (
      match (l.batch, cur) with
      | None, [] -> go (`Control l :: acc) [] rest
      | None, c -> go (`Control l :: `Batch (List.rev c) :: acc) [] rest
      | Some b, (c :: _ as cs) when c.batch = Some b -> go acc (l :: cs) rest
      | Some _, [] -> go acc [ l ] rest
      | Some _, cs -> go (`Batch (List.rev cs) :: acc) [ l ] rest)
  in
  go [] [] lines

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

type mirror = {
  pstate : Churn.Policy.state;
  flow : Incremental.t;
  journal : Tracker.Journal.t;
  mutable overlay : Overlay.t;
  mutable steps : int;
  mutable rebuilds : int;
  mutable churn : int;
  mutable pending_audit : (int * Repair.stats) option;
  mutable requests : int;
  mutable events : int;
  mutable batches : int;
  mutable queries : int;
}

let traced_replay ~inst ~lines ~expected ~trace_events ~journal_dir =
  (* The starting overlay, as `bmp tracker serve` builds it: the acyclic
     optimum backed off by the default headroom (Overlay.build ~rate,
     step by step). *)
  let setup = Spans.open_ "setup" in
  let sspan name f = Spans.with_ ~parent:setup name f in
  let t, _ = sspan "greedy.optimal_acyclic" (fun () -> Greedy.optimal_acyclic inst) in
  let rate = t *. headroom in
  let word =
    match sspan "greedy.test" (fun () -> Greedy.test inst ~rate) with
    | Some w -> w
    | None -> fail "replay: headroomed rate is infeasible"
  in
  let scheme = sspan "low_degree.build" (fun () -> Low_degree.build inst ~rate word) in
  let overlay = Overlay.of_scheme scheme ~order:(Word.to_order word inst) in
  let snap = sspan "scheme.snapshot" (fun () -> Scheme.snapshot (Overlay.scheme overlay)) in
  let flow = sspan "incremental.create" (fun () -> Incremental.create snap ~src:0) in
  let journal =
    sspan "journal.start" (fun () ->
        fst
          (Tracker.Journal.start ~dir:journal_dir ~sync:Tracker.Journal.Batch
             ~checkpoint_every ~restore:false ()))
  in
  Spans.close setup;
  let m =
    {
      pstate = Churn.Policy.init policy overlay;
      flow;
      journal;
      overlay;
      steps = 0;
      rebuilds = 0;
      churn = 0;
      pending_audit = None;
      requests = 0;
      events = 0;
      batches = 0;
      queries = 0;
    }
  in
  let root = Spans.open_ "replay" in
  let wall0 = now () in
  let trace_pos = ref 0 in
  let responses = ref [] in
  let counters seq =
    {
      Tracker.Journal.seq;
      requests = m.requests;
      events = m.events;
      batches = m.batches;
      errors = 0;
      rollbacks = 0;
      queries = m.queries;
    }
  in
  let checkpoint ~parent seq =
    Spans.with_ ~parent ~ref_id:m.batches "journal.checkpoint" (fun () ->
        Tracker.Journal.write_checkpoint m.journal ~counters:(counters seq)
          m.overlay)
  in
  let parse ~parent l =
    m.requests <- m.requests + 1;
    match
      Spans.with_ ~parent ~ref_id:l.seq "protocol.parse" (fun () ->
          Tracker.Protocol.parse_request ~max_line l.text)
    with
    | Ok r -> r
    | Error (code, msg) -> fail "replay: seq %d is not a request (%s: %s)" l.seq code msg
  in
  let encode ~parent ~ref_id f =
    responses := Spans.with_ ~parent ~ref_id "protocol.encode" f :: !responses
  in
  (* Engine.step ~defer_audit:true, layer by layer. *)
  let step ~parent ~batch event =
    let span name f = Spans.with_ ~parent ~ref_id:batch name f in
    let report o =
      (span "metrics.scheme_report" (fun () -> Metrics.scheme_report (Overlay.scheme o)))
        .Metrics.max_excess
    in
    let index = m.steps in
    m.steps <- m.steps + 1;
    let o = m.overlay in
    let size = Scheme.size (Overlay.scheme o) in
    let cls g = if g then Platform.Instance.Guarded else Platform.Instance.Open in
    let repaired =
      match (event : Trace.event) with
      | Leave { pick } ->
        if size <= min_population then None
        else
          Some (span "repair.leave" (fun () -> Repair.leave o ~node:(resolve_pick ~size pick)))
      | Join { bandwidth; guarded } ->
        Some (span "repair.join" (fun () -> Repair.join o ~bandwidth ~cls:(cls guarded)))
      | Degrade { pick; factor } ->
        let node = resolve_pick ~size pick in
        let b = (Overlay.instance o).Platform.Instance.bandwidth.(node) in
        Some (span "repair.degrade" (fun () -> Repair.degrade o ~node ~bandwidth:(b *. factor)))
      | Restore { pick; factor } ->
        let node = resolve_pick ~size pick in
        let b = (Overlay.instance o).Platform.Instance.bandwidth.(node) in
        Some (span "repair.restore" (fun () -> Repair.restore o ~node ~bandwidth:(b /. factor)))
      | Fail_batch { picks } -> (
        match resolve_batch ~size picks with
        | [] -> None
        | nodes -> Some (span "repair.leave_batch" (fun () -> Repair.leave_batch o ~nodes)))
      | Flash_crowd { arrivals } ->
        let o, edges, last =
          List.fold_left
            (fun (o, edges, acc) (bandwidth, guarded) ->
              let o, (stats : Repair.stats) =
                span "repair.join" (fun () -> Repair.join o ~bandwidth ~cls:(cls guarded))
              in
              let map, stats =
                match acc with
                | None -> (stats.Repair.node_map, stats)
                | Some (map, (prev : Repair.stats)) ->
                  ( Array.map
                      (fun v -> if v < 0 then -1 else stats.Repair.node_map.(v))
                      map,
                    {
                      stats with
                      Repair.delta =
                        compose_delta prev.Repair.delta ~map:stats.Repair.node_map
                          stats.Repair.delta;
                    } )
              in
              (o, edges + stats.Repair.patch_edges, Some (map, stats)))
            (o, 0, None) arrivals
        in
        Option.map
          (fun (map, stats) ->
            (o, { stats with Repair.patch_edges = edges; node_map = map }))
          last
    in
    match repaired with
    | None ->
      let rate = Overlay.verified_rate o in
      {
        Engine.index;
        event;
        action = Engine.Skipped;
        size;
        rate;
        optimal = rate;
        ratio = 1.;
        churn_edges = 0;
        cumulative_churn = m.churn;
        max_excess = report o;
        rebuilds = m.rebuilds;
      }
    | Some (patched, (stats : Repair.stats)) ->
      let max_excess = report patched in
      let obs =
        { Churn.Policy.rate = stats.rate_after; optimal = stats.optimal_after; max_excess }
      in
      let o, action, churn_edges, (fstats : Repair.stats), max_excess =
        if span "policy.decide" (fun () -> Churn.Policy.decide m.pstate obs) then begin
          let rebuilt, (rstats : Repair.stats) =
            span "repair.rebuild" (fun () ->
                Repair.rebuild ~headroom:rebuild_headroom patched)
          in
          m.rebuilds <- m.rebuilds + 1;
          Churn.Policy.note_rebuild m.pstate rebuilt;
          ( rebuilt,
            Engine.Rebuilt,
            stats.patch_edges + rstats.patch_edges,
            rstats,
            report rebuilt )
        end
        else (patched, Engine.Patched, stats.patch_edges, stats, max_excess)
      in
      let rate = fstats.rate_after and optimal = fstats.optimal_after in
      m.overlay <- o;
      m.churn <- m.churn + churn_edges;
      let snap = span "scheme.snapshot" (fun () -> Scheme.snapshot (Overlay.scheme o)) in
      (match action with
      | Engine.Rebuilt -> span "incremental.rebase" (fun () -> Incremental.rebase m.flow snap)
      | _ ->
        span "incremental.apply" (fun () ->
            Incremental.apply m.flow ~map:fstats.Repair.node_map snap));
      let fstats =
        match m.pending_audit with
        | None -> fstats
        | Some (_, (prev : Repair.stats)) ->
          {
            fstats with
            Repair.delta =
              compose_delta prev.Repair.delta ~map:fstats.Repair.node_map
                fstats.Repair.delta;
          }
      in
      m.pending_audit <- Some (index, fstats);
      {
        Engine.index;
        event;
        action;
        size = Scheme.size (Overlay.scheme o);
        rate;
        optimal;
        ratio =
          (if optimal > 0. && Float.is_finite optimal then rate /. optimal else 1.);
        churn_edges;
        cumulative_churn = m.churn;
        max_excess;
        rebuilds = m.rebuilds;
      }
  in
  (* Session.flush for one batch whose lines were already parsed. *)
  let flush ~batch ~parent ~seq members =
    m.batches <- m.batches + 1;
    if m.batches <> batch then
      fail "replay: flush %d was answered as batch %d" m.batches batch;
    let span name f = Spans.with_ ~parent ~ref_id:batch name f in
    let groups = coalesce members in
    let applied =
      List.map
        (fun (seqs, event) ->
          let committed = trace_events.(!trace_pos) in
          if Trace.event_to_json committed <> Trace.event_to_json event then
            fail "replay: batch %d does not coalesce into the committed trace" batch;
          incr trace_pos;
          (seqs, event, step ~parent ~batch committed))
        groups
    in
    (match m.pending_audit with
    | None -> ()
    | Some (index, stats) ->
      m.pending_audit <- None;
      span "audit.check" (fun () ->
          Churn.Audit.check audit ~index ~stats ~flow:m.flow m.overlay));
    m.events <- m.events + List.length applied;
    span "journal.append" (fun () ->
        Tracker.Journal.append_batch m.journal ~seq
          ~events:(List.map (fun (_, e, _) -> e) applied));
    if Tracker.Journal.checkpoint_due m.journal then checkpoint ~parent seq;
    List.iter
      (fun (seqs, _, record) ->
        List.iter
          (fun seq ->
            encode ~parent ~ref_id:seq (fun () ->
                Tracker.Protocol.event_response ~seq ~batch ~latency_us:0
                  ~audit:"pass" record))
          seqs)
      applied
  in
  let state_fields () =
    (Scheme.size (Overlay.scheme m.overlay), Overlay.verified_rate m.overlay)
  in
  List.iter
    (function
      | `Batch (ls : line list) ->
        let batch = Option.get (List.hd ls).batch in
        let parent = Spans.open_ ~parent:root ~ref_id:batch "batch" in
        let members =
          List.map
            (fun l ->
              match parse ~parent l with
              | Tracker.Protocol.Event e -> (l.seq, e)
              | _ -> fail "replay: seq %d in batch %d is not a mutation" l.seq batch)
            ls
        in
        flush ~batch ~parent ~seq:(List.hd (List.rev ls)).seq members;
        Spans.close parent
      | `Control l ->
        let parent = Spans.open_ ~parent:root ~ref_id:l.seq "control" in
        (match parse ~parent l with
        | Tracker.Protocol.Query ->
          m.queries <- m.queries + 1;
          let size, rate = state_fields () in
          encode ~parent ~ref_id:l.seq (fun () ->
              Tracker.Protocol.query_response ~seq:l.seq ~latency_us:0 ~size ~rate
                ~requests:m.requests ~events:m.events ~batches:m.batches ~errors:0
                ~rollbacks:0 ~queries:m.queries)
        | Tracker.Protocol.Shutdown ->
          let size, rate = state_fields () in
          encode ~parent ~ref_id:l.seq (fun () ->
              Tracker.Protocol.shutdown_response ~seq:l.seq ~latency_us:0 ~size ~rate)
        | Tracker.Protocol.Event _ -> fail "replay: seq %d was never batched" l.seq);
        Spans.close parent)
    (segments lines);
  (* The CLI's graceful shutdown: one last checkpoint, then close. *)
  checkpoint ~parent:root (List.length lines);
  Spans.close root;
  let wall = now () -. wall0 in
  let wal_bytes = Tracker.Journal.wal_offset m.journal in
  Tracker.Journal.close m.journal;
  if !trace_pos <> Array.length trace_events then
    fail "replay: %d of %d committed events replayed" !trace_pos
      (Array.length trace_events);
  List.iteri
    (fun i got ->
      if strip_latency got <> strip_latency (expected (i + 1)) then
        fail "replay: response %d differs from the daemon's:\n  %s\n  %s" (i + 1)
          got (expected (i + 1)))
    (List.rev !responses);
  (m, wall, wal_bytes)

(* The same lines through an untraced Tracker.Session, flushed where the
   daemon flushed: the base for the tracing overhead, and a second check
   of the served state. *)
let session_replay ~inst ~lines ~batch ~journal_dir =
  let overlay =
    let t, _ = Greedy.optimal_acyclic inst in
    Overlay.build ~rate:(t *. headroom) inst
  in
  let journal, _ =
    Tracker.Journal.start ~dir:journal_dir ~sync:Tracker.Journal.Batch
      ~checkpoint_every ~restore:false ()
  in
  let config =
    {
      Tracker.Session.default_config with
      policy;
      audit;
      engine = Churn.Audit.Incremental;
      rebuild_headroom = Some rebuild_headroom;
      batch;
    }
  in
  let session = Tracker.Session.create ~journal config overlay in
  let stats0 = Gc.quick_stat () in
  let t0 = now () in
  let answered = ref 0 in
  List.iter
    (function
      | `Batch ls ->
        List.iter
          (fun l -> answered := !answered + List.length (Tracker.Session.submit session l.text))
          ls;
        answered := !answered + List.length (Tracker.Session.flush session)
      | `Control l ->
        answered := !answered + List.length (Tracker.Session.submit session l.text))
    (segments lines);
  Tracker.Session.checkpoint session;
  let wall = now () -. t0 in
  let stats1 = Gc.quick_stat () in
  Tracker.Journal.close journal;
  if !answered <> List.length lines then
    fail "replay: session answered %d of %d lines" !answered (List.length lines);
  ( Tracker.Session.live session,
    wall,
    stats1.Gc.minor_words -. stats0.Gc.minor_words,
    stats1.Gc.major_collections - stats0.Gc.major_collections )

let replay ~instance ~requests ~responses ~trace_in ~state ~batch ~work ~spans =
  let inst = read_instance instance in
  let lines, expected = load_lines ~requests ~responses in
  let trace_events =
    match Trace.of_json (read_file trace_in) with
    | Ok t -> t.Trace.events
    | Error e -> fail "replay: cannot read %s: %s" trace_in e
  in
  let state_json = read_file state in
  let batches =
    List.filter_map (function `Batch ls -> Some ls | `Control _ -> None) (segments lines)
  in
  List.iter
    (fun ls ->
      if List.length ls > batch then
        fail "replay: a batch holds %d requests, more than --batch %d" (List.length ls) batch)
    batches;
  let dir name =
    let d = Filename.concat work name in
    rm_rf d;
    d
  in
  (* Untraced first, each after a full major collection, so neither
     replay pays for the other's garbage. *)
  Gc.compact ();
  let live', untraced_wall, minor_words, major =
    session_replay ~inst ~lines ~batch ~journal_dir:(dir "journal-session")
  in
  if Scheme.to_json (Overlay.scheme live') ^ "\n" <> state_json then
    fail "replay: the session replay's final scheme differs from --state-out";
  Gc.compact ();
  let m, traced_wall, wal_bytes =
    traced_replay ~inst ~lines ~expected ~trace_events ~journal_dir:(dir "journal-traced")
  in
  let live = Scheme.to_json (Overlay.scheme m.overlay) ^ "\n" in
  if live <> state_json then fail "replay: final scheme differs from --state-out";
  Spans.write spans;
  print_endline
    (json_obj
       [
         ("requests", jint m.requests);
         ("batches", jint m.batches);
         ("events", jint m.events);
         ("wal_bytes", jint wal_bytes);
         ("traced_wall_s", jfloat traced_wall);
         ("untraced_wall_s", jfloat untraced_wall);
         ("session_minor_words", jfloat minor_words);
         ("session_major_collections", jint major);
       ])

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec find = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let req name = match opt name with Some v -> v | None -> fail "missing %s" name in
  let int name =
    match int_of_string_opt (req name) with Some v -> v | None -> fail "%s: not an integer" name
  in
  match args with
  | _ :: "stream" :: _ ->
    stream ~platform_seed:(int "--platform-seed") ~seed:(int "--seed")
      ~nodes:(int "--nodes") ~chunks:(int "--chunks") ~work:(req "--work")
      ~spans_path:(req "--trace")
  | _ :: "replay" :: _ ->
    replay ~instance:(req "--instance") ~requests:(req "--requests")
      ~responses:(req "--responses") ~trace_in:(req "--trace-in")
      ~state:(req "--state") ~batch:(int "--batch") ~work:(req "--work")
      ~spans:(req "--spans")
  | _ -> fail "usage: bmpbench (stream|replay) OPTIONS"
