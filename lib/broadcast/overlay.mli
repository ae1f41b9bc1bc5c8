(** A built broadcast overlay: a verified {!Scheme} artifact plus a
    topological order of its nodes, bundled so that dynamic operations
    (the churn handling of {!Repair}) can reason about both consistently.

    Fresh overlays come from the Theorem 4.1 pipeline; repaired overlays
    keep the same shape but their order is no longer necessarily an
    increasing-order word (nodes joined under churn are appended last),
    and their scheme carries [Scheme.Repaired] provenance. *)

type t = {
  scheme : Scheme.t;  (** the structurally-validated artifact *)
  order : int array;
      (** topological order of the scheme: [order.(0) = 0] (the source),
          then every other node exactly once; every edge goes forward *)
}

val scheme : t -> Scheme.t
val instance : t -> Platform.Instance.t
(** [Scheme.instance (scheme t)] — always sorted. *)

val rate : t -> float
(** Target rate the scheme was built for ([Scheme.rate]). *)

val graph : t -> Flowgraph.Graph.t
(** The scheme's rated edge set; read-only (see {!Scheme.graph}). *)

val order : t -> int array

val of_scheme : Scheme.t -> order:int array -> t
(** [of_scheme s ~order] wraps an existing artifact with a node order
    (copied). Raises [Invalid_argument] if the order length does not
    match the scheme size or [order.(0) <> 0]; permutation and
    forward-edge properties are checked by {!well_formed}, not here. *)

val build : ?rate:float -> Platform.Instance.t -> t
(** [build inst] computes the optimal low-degree acyclic overlay
    (Theorem 4.1 pipeline); [rate] forces a sub-optimal target (must be
    feasible, or [Invalid_argument] is raised). The instance must be
    sorted. *)

val optimal_rate : Platform.Instance.t -> float option
(** [optimal_rate inst] is [Some (rate (build inst))], computed without
    building: the bisection optimum of {!Greedy.optimal_acyclic} backed
    off by [4 Util.eps], bit for bit the rate [build inst] targets. It
    is [None] exactly where [build inst] raises: when the optimum is 0
    (no positive rate is feasible), or when the backed-off word does not
    survive the Lemma 4.6 pool accounting
    ({!Low_degree.constructible}). Costs one dichotomic search plus one
    graph-free pass; the instance must be sorted with at least one
    receiver. *)

val verified_rate : t -> float
(** Throughput from the scheme's memoized {!Scheme.report} (the honest
    number after repairs); [infinity] on a single-node overlay. *)

val positions : t -> int array
(** [pos] with [pos.(v)] the position of node [v] in [order]. *)

val well_formed : t -> bool
(** Structural sanity: order is a permutation starting at the source, all
    edges go forward in it, and the scheme's report confirms bandwidth,
    firewall and cap constraints. *)

val edge_changed : before:float -> after:float -> bool
(** Whether one connection counts as changed when its weight goes from
    [before] to [after] ([0.] for an absent edge): a new edge always
    counts, an existing one when the weights differ beyond a [1e-9]
    relative tolerance. {!edge_distance} counts the pairs it holds for;
    {!Repair} applies it to the edges its log saw rewritten. *)

val edge_distance : Flowgraph.Graph.t -> Flowgraph.Graph.t -> int
(** Number of edge insertions, deletions and re-weightings (beyond a 1e-9
    relative tolerance) separating two graphs — the churn cost of moving a
    live swarm from one overlay to another, every change being a TCP
    connection to open, close or re-shape. *)
