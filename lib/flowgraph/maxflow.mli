(** Maximum flow on float-capacity digraphs (Dinic's algorithm on a flat
    CSR arena).

    The throughput of a broadcast scheme is
    [min over i of maxflow (C0 -> Ci)] on the weighted communication graph
    (paper, Section II-D); this module is the verification oracle behind
    that definition. Dinic runs in [O(V^2 E)] in general — far below what
    the test instances require — and capacities are floats, so a relative
    tolerance [eps] bounds the residual-capacity cutoff.

    The residual network lives in arc-indexed int/float arrays built from
    a {!Csr.t} snapshot: adjacency is itself CSR, phase cursors reset by
    [Array.blit], BFS runs on a flat int queue, and the blocking-flow DFS
    is {e iterative} (explicit arc stack), so deep level graphs — path- or
    ring-shaped schemes at n = 100k and beyond — cannot overflow the OCaml
    stack. The pre-CSR list-based engine it replaced lives on outside the
    library, as the reference oracle in [test/oracle/maxflow_legacy.ml]
    that the differential suite and [bench/verify_bench.ml] compare
    against.

    Verification workloads solve one flow per destination on the {e same}
    scheme; the {!solver} type shares one residual arena across all sinks
    (switching sink restores capacities with a blit instead of rebuilding
    the arena) and supports early exit once a target value is certified.
    {!broadcast_throughput} additionally takes the O(V + E)
    {!Csr.min_incoming_cut} fast path on acyclic schemes. Callers that
    already hold a {!Csr.t} snapshot should use the [_csr] variants to
    avoid re-freezing the graph. *)

val max_flow : ?eps:float -> Graph.t -> src:int -> dst:int -> float
(** [max_flow g ~src ~dst] is the value of a maximum [src]-[dst] flow in
    [g], treating edge weights as capacities. [eps] (default [1e-12])
    is the smallest residual capacity considered usable. Requires
    [src <> dst]. The input graph is not modified. This is the plain
    per-call reference: it rebuilds its residual network every time. *)

(** {1 Batch solving (one scheme, many sinks)} *)

type solver
(** A reusable max-flow context for a fixed graph and source: the residual
    arena is built once and re-augmented per sink. *)

val solver : ?eps:float -> Graph.t -> src:int -> solver
(** [solver g ~src] prepares the shared residual network. Later changes to
    [g] are not reflected. *)

val solver_of_csr : ?eps:float -> Csr.t -> src:int -> solver
(** Like {!solver}, but from an existing snapshot — no re-freeze. *)

val solve : ?limit:float -> solver -> dst:int -> float
(** [solve s ~dst] is [max_flow] from the solver's source to [dst],
    re-using the shared arena. With [limit] (default [infinity])
    augmentation stops as soon as the accumulated flow reaches [limit]:
    the result is the exact max-flow value when it is [< limit], and
    otherwise only certifies that the max flow is [>= limit]. Requires
    [dst <> src]. *)

(** {1 Broadcast queries} *)

val min_broadcast_flow : ?eps:float -> Graph.t -> src:int -> float
(** [min_broadcast_flow g ~src] is
    [min over all v <> src of max_flow g ~src ~dst:v] — the broadcast
    throughput of the scheme described by [g]. Returns [infinity] on a
    single-node graph. Sinks share one {!solver} and are visited in
    increasing incoming-capacity order ([in_weight v] bounds the flow into
    [v]), so each sink stops augmenting at the running minimum; the value
    is exact regardless. *)

val broadcast_throughput : ?eps:float -> Graph.t -> src:int -> float
(** Structure-aware {!min_broadcast_flow}: on acyclic graphs the
    throughput is [min over v <> src of in_weight v]
    (see {!Csr.min_incoming_cut}) and costs O(V + E) total; cyclic graphs
    fall back to {!min_broadcast_flow}. Values agree with the plain
    per-destination Dinic computation up to its [eps] tolerance. *)

val achieves_rate : ?eps:float -> Graph.t -> src:int -> rate:float -> bool
(** [achieves_rate g ~src ~rate] is [min_broadcast_flow g ~src >= rate],
    decided with early exit: each sink stops augmenting at [rate], and the
    scan aborts at the first sink below it. The comparison is exact; apply
    any tolerance by adjusting [rate] before the call. *)

val min_broadcast_flow_csr : ?eps:float -> Csr.t -> src:int -> float
(** {!min_broadcast_flow} on an existing snapshot. *)

val achieves_rate_csr : ?eps:float -> Csr.t -> src:int -> rate:float -> bool
(** {!achieves_rate} on an existing snapshot. *)

val broadcast_throughput_csr : ?eps:float -> Csr.t -> src:int -> float
(** {!broadcast_throughput} on an existing snapshot. *)

(** {1 Flow witnesses} *)

val flow_assignment :
  ?eps:float -> Graph.t -> src:int -> dst:int -> float * Graph.t
(** [flow_assignment g ~src ~dst] additionally returns the flow itself as a
    graph (edge weight = flow routed on that edge), for callers that need a
    witness (e.g. decomposition into paths). Builds a one-shot solver;
    when one is already alive, use {!flow_of_solver} instead. *)

val flow_of_solver : solver -> dst:int -> float * Graph.t
(** [flow_of_solver s ~dst] solves from the solver's source to [dst]
    (resetting the shared arena, no [limit]) and reads the witness back
    from the residual capacities — no arena rebuild. *)

(** {1 Incremental solving under churn} *)

module Incremental = Incremental
(** Warm-start incremental variant: persists arc-flow/residual state
    across churn events and re-augments from the residual instead of
    solving from zero. See {!Incremental}. *)
