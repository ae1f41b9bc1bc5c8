(** Discrete-event fault injection over live overlays.

    [run] replays a {!Trace.t} against an {!Overlay.t}: each event is
    applied through the corresponding {!Broadcast.Repair} operation, the
    configured {!Policy} decides whether to follow the local patch with a
    full rebuild, the {!Audit} level re-checks every invariant, and a
    per-event timeline plus a summary come back for reporting. The whole
    run is deterministic: same overlay, trace, policy and audit level —
    same result, byte for byte.

    Event semantics:

    - node-targeting events resolve their abstract [pick] against the
      current population as [1 + pick mod (size - 1)] (never the source);
    - a [Leave] is skipped when the overlay has 3 or fewer nodes, and a
      [Fail_batch] keeps at most [size - 3] distinct casualties (dropping
      the excess picks), so the overlay never shrinks below a source plus
      two receivers mid-run;
    - [Degrade] multiplies the picked node's bandwidth by its factor;
      [Restore] divides by it (so a degrade/restore pair at equal factors
      cancels);
    - a [Flash_crowd] applies its arrivals as successive joins and
      reports them as one timeline record. *)

open Broadcast

type action =
  | Patched  (** local repair only *)
  | Rebuilt  (** local repair followed by a policy-ordered rebuild *)
  | Skipped  (** event could not apply (population too small) *)

type record = {
  index : int;  (** position of the event in the trace *)
  event : Trace.event;
  action : action;
  size : int;  (** population after the event *)
  rate : float;  (** measured throughput after the event *)
  optimal : float;  (** optimal acyclic rate of the instance after *)
  ratio : float;  (** [rate /. optimal], 1 when the optimum is 0 *)
  churn_edges : int;  (** edges touched by this event (patch + rebuild) *)
  cumulative_churn : int;
  max_excess : int;  (** worst additive outdegree excess after the event *)
  rebuilds : int;  (** cumulative rebuild count *)
}

type summary = {
  events : int;  (** trace length *)
  applied : int;
  skipped : int;
  rebuilds : int;
  total_churn : int;  (** total edge churn (repair + rebuild cost) *)
  min_ratio : float;  (** worst rate / optimal over applied events; 1 if none *)
  mean_ratio : float;  (** mean over applied events; 1 if none *)
  final_size : int;
  final_rate : float;
  final_optimal : float;
}

type result = { overlay : Overlay.t; timeline : record list; summary : summary }

val run :
  ?policy:Policy.t ->
  ?audit:Audit.level ->
  ?engine:Audit.engine ->
  ?rebuild_headroom:float ->
  ?on_event:(record -> unit) ->
  ?probe:
    (index:int ->
    Overlay.t ->
    Flowgraph.Maxflow.Incremental.t option ->
    unit) ->
  Overlay.t ->
  Trace.t ->
  result
(** [run o trace] replays the whole trace. [policy] defaults to
    [Policy.Always_patch]; [audit] to [Audit.Off].

    [engine] (default [Audit.Full]) selects the rate-maintenance engine:
    under [Audit.Incremental] a {!Flowgraph.Maxflow.Incremental} state is
    created from the starting overlay and moved across every applied
    event via the repair's [node_map] (a policy rebuild rebases it cold —
    the rewiring invalidates most warm flow anyway), and the auditor
    receives the handle, adding the warm-value agreement checks of
    {!Audit.check}. The knob changes what is maintained and audited,
    never the run's outputs: timeline, summary and final overlay are
    byte-identical across engines.

    [probe] is a test hook called after each applied event's audit with
    the event index, the live overlay and the warm state (when the
    incremental engine is on) — the differential harness uses it to
    cross-check the warm value after {e every} event.

    [rebuild_headroom]
    is forwarded to {!Broadcast.Repair.rebuild}: without it a rebuild
    targets the exact optimum and leaves no spare upload capacity, so on
    a growing population every post-rebuild join collapses the rate to 0
    and (under an adaptive policy) triggers a rebuild storm; a headroom
    below 1 is how an operator breaks that cycle. [on_event] streams
    each record as it is produced (the CLI's [--timeline]). Raises
    {!Audit.Violation} on the first audit failure, with the event
    index. *)

(** {2 Stepwise driving}

    [run] is a fold of {!step} over a trace. Long-running consumers — the
    tracker daemon ({!Tracker}) above all — hold a {!state} and feed it
    events one at a time as requests arrive, so a single engine (policy
    drift state, warm flow, counters) survives an unbounded stream.
    Driving [step] over the events of a trace in order reproduces [run]
    on that trace byte for byte: same records, same summary, same final
    overlay. *)

type state
(** A live engine: the current overlay plus every piece of cross-event
    state ([run]'s loop variables — policy state, warm incremental flow,
    counters, last record). Mutable; not thread-safe. *)

val start :
  ?policy:Policy.t ->
  ?audit:Audit.level ->
  ?engine:Audit.engine ->
  ?rebuild_headroom:float ->
  ?probe:
    (index:int ->
    Overlay.t ->
    Flowgraph.Maxflow.Incremental.t option ->
    unit) ->
  Overlay.t ->
  state
(** [start o] opens a live engine on overlay [o]. The optional arguments
    are exactly {!run}'s (defaults included); under [Audit.Incremental]
    the warm flow state is created here, from [o]. *)

val step : ?defer_audit:bool -> state -> Trace.event -> record
(** [step st e] applies one event — repair, policy decision, optional
    rebuild, warm-flow maintenance, audit, probe — and returns its
    record. Event indices count from 0 in [start] order.

    [defer_audit] (default [false]) postpones the audit of an applied
    event until {!flush_audit} or the next non-deferred applied step,
    letting a batch of steps pay for one audit of the final state instead
    of one per event. Only the latest applied step's audit is pending at
    any time — intermediate deferred audits are superseded, which is the
    point. Skipped events never audit (deferred or not), exactly as in
    {!run}. Raises {!Audit.Violation} on an inline audit failure; the
    state should then be considered poisoned and discarded. *)

val flush_audit : state -> unit
(** Runs the audit left pending by [step ~defer_audit:true], if any,
    against the current overlay. No-op when nothing is pending. Raises
    {!Audit.Violation} on failure. *)

val live : state -> Overlay.t
(** The current overlay. *)

val last_repair : state -> Repair.stats option
(** The repair stats of the latest step — the policy rebuild's when it
    fired — whose [node_map] moved the warm flow; [None] before the first
    step and after a skipped event. Lets a caller mirror the engine's
    warm-flow maintenance step for step. *)

val progress : state -> summary
(** Summary over the steps taken so far — the same value [run] would
    report for the trace consumed so far. *)
