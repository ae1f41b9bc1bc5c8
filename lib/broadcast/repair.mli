(** Local overlay repair under churn.

    The paper's conclusion flags churn as the open problem of its approach
    ("it is probably not resilient to churn"). This module implements the
    natural local-repair strategies on the acyclic overlays built here and
    quantifies the trade-off against a full rebuild:

    - {!leave}: when a node departs, its upload responsibilities are
      redistributed to earlier nodes with spare upload capacity (keeping
      the scheme acyclic and firewall-safe) and its own reception is
      dropped; nothing else moves. The repaired rate may be below the new
      instance's optimum — the honest number is re-measured through the
      patched scheme's cached CSR snapshot.
    - {!leave_batch}: a correlated failure — several nodes vanish in the
      same event (rack loss, AS partition) and the survivors are patched
      once, not once per casualty.
    - {!join}: a newcomer is appended last in the topological order and
      fed from whatever spare capacity exists (guarded supply first if it
      is open); its own upload stays idle until the next rebuild, so it
      never degrades existing nodes. On a saturated overlay the newcomer
      is admitted at rate 0 and reported through {!stats.starved} — the
      operation never raises for lack of capacity.
    - {!degrade} / {!restore}: a node's measured upload capacity changes
      without any membership change (congestion, throttling, recovery).
      The node is moved to its sorted position within its class, its
      outgoing edges are scaled down to the new cap when necessary, and
      every reception deficit in the overlay is refilled from spare
      capacity in topological order — so a restore also heals nodes
      starved by an earlier degrade.

    - {!join_batch}: a flash crowd — several newcomers admitted in one
      event, exactly as the fold of {!join}s, with the reference optimum
      computed once for the crowd instead of once per arrival.

    All patch operations touch [O(degree)] edges where a rebuild re-wires
    the whole swarm; the churn experiments (E13/E14) and the
    fault-injection engine ({!Churn.Engine}) measure exactly this gap and
    the throughput cost of patching versus rebuilding.

    {b Summation order.} The refill arithmetic runs on a
    {!Flowgraph.Graph} built by the same sequence every time (the base
    scheme's graph, then a remap into post-event ids). [Graph.out_weight]
    and [in_weight] sum in hashtable order, so a graph built in another
    insertion order could flip the last bit of a spare-capacity test and
    hence an output; the patched scheme itself is frozen canonically and
    does not depend on that order. *)

type delta = {
  full : bool;
      (** the whole overlay may have changed ({!rebuild}); consumers must
          fall back to full scans and ignore the other fields *)
  identity : bool;
      (** [node_map] is the identity — no renumbering happened, so node
          ids (and any id-keyed consumer state) are stable across the
          event; newly admitted nodes, if any, are appended at the end.
          Meaningful only when [full] is [false]. This is the fast case
          that lets {!Scheme.apply_delta} keep the frozen snapshot warm:
          a guarded join landing last in its class, or a
          degrade/restore whose class re-sort is a no-op. *)
  touched : int array;
      (** post-event ids of every node whose bandwidth or incident edge
          set changed, sorted ascending — renaming alone does not touch
          a node. The certificate-trusting auditor re-checks exactly
          these rows. *)
  added : (int * int) array;
      (** edges created by the repair (post-event ids, sorted) *)
  removed : (int * int) array;
      (** edges that vanished with a departure (pre-event ids, sorted);
          edges clamped to zero by a degrade appear in [reweighted]
          instead *)
  reweighted : (int * int) array;
      (** edges whose weight changed (post-event ids, sorted) *)
}
(** Structured account of what an operation disturbed — the contract that
    lets downstream layers (snapshot patching, the churn auditor's
    certificate level, warm flow maintenance) do O(touched) work per
    event instead of rescanning O(V+E) state. *)

val full_delta : delta
(** The everything-may-have-changed delta ([full = true], empty edge
    lists) — what {!rebuild} reports, and the conservative default for
    consumers handed no repair stats. *)

type stats = {
  patch_edges : int;
      (** edge changes performed by the local repair, counted from the
          repair's own edit log with the {!Overlay.edge_changed}
          predicate — equal to {!Overlay.edge_distance} between the
          pre-repair graph (in post-event ids) and the patched one, plus
          the edges that departed with removed nodes *)
  rebuild_edges : int Lazy.t;
      (** edge changes a full re-optimization would have required. Lazy:
          forcing it re-projects the pre-event overlay (kept as its
          immutable CSR snapshot) and runs a cold {!Overlay.build}, an
          O(n) rebuild. The churn engine and the tracker never force it;
          the repair-vs-rebuild experiment (E13) and tests do. When no
          rebuild exists ([optimal_after = 0.]) it is the operation's own
          [patch_edges]. For {!join_batch} it is the last arrival's
          value, as in the fold of {!join}s. *)
  rate_after : float;
      (** throughput of the patched overlay, measured through the scheme's
          memoized report (the CSR structured fast path on acyclic
          overlays — no fresh max-flow per operation) *)
  optimal_after : float;
      (** optimal acyclic rate of the new instance: {!Overlay.optimal_rate},
          i.e. {!Greedy.optimal_acyclic}'s optimum backed off by
          [4 Util.eps] — bit for bit [Overlay.rate (Overlay.build inst)],
          computed without building. Explicitly [0.] where that build
          would fail: a zero optimum, or a backed-off word the Lemma 4.6
          construction rejects. *)
  starved : int list;
      (** non-source nodes whose incoming rate remains below the overlay's
          target rate (beyond a [1e-6] relative slack) after the repair —
          empty on a nominal patch. A join on a saturated overlay reports
          the newcomer here instead of raising. *)
  node_map : int array;
      (** renumbering performed by the repair: [node_map.(v)] is the
          index the pre-repair node [v] carries in the repaired overlay,
          or [-1] if it departed. Every operation renumbers (instances
          stay bandwidth-sorted within classes); warm consumers —
          {!Flowgraph.Maxflow.Incremental} behind the churn engine's
          incremental audit — use this map to carry state across the
          event. Identity for {!rebuild}. *)
  delta : delta;
      (** what the event disturbed, for delta-scoped consumers; a
          {!rebuild} reports [delta.full = true] *)
}

val compose_delta : delta -> map:int array -> delta -> delta
(** [compose_delta d1 ~map d2] is the delta of two consecutive events as
    one: [d1] speaks the intermediate overlay's ids, [map] is the second
    event's [node_map], [d2] speaks the final ids. [full], [identity] and
    [touched] (what delta-scoped consumers act on) are merged exactly;
    the edge lists keep [d2]'s view. A full delta on either side gives
    {!full_delta}. *)

val leave : Overlay.t -> node:int -> Overlay.t * stats
(** [leave o ~node] removes node [node] (an index in the overlay's
    instance, not the source) and patches the overlay. The returned
    overlay is {!Overlay.well_formed}; its scheme keeps the original
    target rate and carries [Scheme.Repaired] provenance (collapsed to a
    single wrapping layer across successive repairs, with no degree
    promise). Raises [Invalid_argument] on the source, an out-of-range
    index, or when the overlay has a single receiver left. *)

val leave_batch : Overlay.t -> nodes:int list -> Overlay.t * stats
(** [leave_batch o ~nodes] removes every node of [nodes] in one event and
    patches the survivors once, in topological order. Equivalent to (but
    cheaper and less churn-prone than) a sequence of {!leave}s.
    Raises [Invalid_argument] on an empty list, duplicates, the source, an
    out-of-range index, or when fewer than two nodes would survive. *)

val join :
  Overlay.t ->
  bandwidth:float ->
  cls:Platform.Instance.node_class ->
  Overlay.t * stats
(** [join o ~bandwidth ~cls] inserts a new node of the given class. The
    node is placed at its sorted position in the instance (so a later
    rebuild sees a sorted instance) but fed last. When no node has spare
    upload capacity the newcomer is admitted at rate 0 and listed in
    {!stats.starved} — saturation is a reported condition, not an error.
    Raises [Invalid_argument] on negative or non-finite bandwidth. *)

val join_batch :
  Overlay.t ->
  arrivals:(float * Platform.Instance.node_class) list ->
  Overlay.t * stats
(** [join_batch o ~arrivals] admits every [(bandwidth, cls)] of
    [arrivals] in order, as one event. Contract: the result equals the
    fold of {!join} over [arrivals] — the same patched overlay
    (byte-identical {!Scheme.to_json}), [patch_edges] summed over the
    arrivals, [node_map] the composition of the per-join maps, [delta]
    their {!compose_delta} composition, and [rate_after],
    [optimal_after], [starved] and [rebuild_edges] those of the last
    join. The difference is cost: the optimum, rate and starved set are
    computed once, for the final overlay, not once per arrival. Raises
    [Invalid_argument] on an empty list or on a bandwidth {!join}
    rejects. *)

val degrade : Overlay.t -> node:int -> bandwidth:float -> Overlay.t * stats
(** [degrade o ~node ~bandwidth] lowers [node]'s upload capacity to
    [bandwidth] (which must not exceed its current bandwidth). The node
    keeps its identity: it is moved to its sorted position within its
    class, its outgoing edges are scaled down proportionally when they
    exceed the new cap, and the resulting reception deficits are refilled
    from spare capacity in topological order. Children that cannot be
    refilled are reported through {!stats.starved}. Degrading the source
    to 0 is rejected (the instance would not admit any broadcast);
    otherwise raises [Invalid_argument] on an out-of-range node, a
    negative, non-finite or increased bandwidth. *)

val restore : Overlay.t -> node:int -> bandwidth:float -> Overlay.t * stats
(** [restore o ~node ~bandwidth] raises [node]'s upload capacity to
    [bandwidth] (which must be at least its current bandwidth) and uses
    the recovered spare capacity to refill any node still starved, in
    topological order — the healing converse of {!degrade}. Raises
    [Invalid_argument] on an out-of-range node or a decreased bandwidth. *)

val rebuild : ?headroom:float -> Overlay.t -> Overlay.t * stats
(** [rebuild o] re-runs the full Theorem 4.1 pipeline on the overlay's
    instance — the expensive alternative the patch operations are
    measured against. [patch_edges = rebuild_edges] in the returned
    stats (already forced); the result carries fresh [Scheme.Theorem41] provenance.

    By default the rebuild targets the instance's optimal acyclic rate,
    leaving zero spare upload capacity — so the next [join] necessarily
    admits its newcomer at rate 0. [headroom] (in (0, 1]) instead targets
    that fraction of the optimum, trading throughput for patch capacity;
    [stats.optimal_after] still reports the true optimum, so the
    post-rebuild ratio is honestly [headroom], not 1. Raises
    [Invalid_argument] on a headroom outside (0, 1]. *)
