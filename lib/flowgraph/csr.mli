(** Frozen compressed-sparse-row (CSR) snapshots of {!Graph.t}.

    {!Graph.t} (one hashtable per node) is the mutable {e construction}
    API; [Csr.t] is the immutable {e query} view the verification hot
    paths run on. Successor and predecessor adjacency are flattened into
    contiguous int/float arrays, per-node weight sums are precomputed,
    and rows are sorted by neighbour index, so iteration order is
    canonical — independent of hashtable insertion history. Building a
    snapshot is one [O(V + E log E)] pass; every query below is
    allocation-free array reads.

    The traversals ({!topo_order}, {!is_acyclic}, {!find_cycle}) use
    explicit work arrays instead of recursion, so deep graphs (path- or
    ring-shaped, n = 100k and beyond) cannot overflow the OCaml stack. *)

type t = private {
  n : int;  (** node count *)
  m : int;  (** edge count *)
  row_off : int array;
      (** length [n + 1]; out-edges of [u] are the CSR edge indices
          [row_off.(u) .. row_off.(u + 1) - 1] *)
  col : int array;
      (** length [m]; destination of each edge, increasing within a row *)
  w : float array;  (** length [m]; weight of each edge *)
  pred_off : int array;
      (** length [n + 1]; in-edges of [v] are the positions
          [pred_off.(v) .. pred_off.(v + 1) - 1] in the two arrays below *)
  pred_src : int array;
      (** length [m]; source of each in-edge, increasing within a row *)
  pred_edge : int array;
      (** length [m]; CSR edge index of each in-edge (into [col]/[w]) *)
  out_wt : float array;  (** per-node outgoing weight, canonical-order sums *)
  in_wt : float array;  (** per-node incoming weight, canonical-order sums *)
}
(** The representation is exposed (read-only) so the max-flow arena and
    other hot loops in this library can index the arrays directly. *)

val of_graph : Graph.t -> t
(** [of_graph g] freezes the current state of [g]; later mutations of [g]
    are not reflected. *)

val remap : n:int -> t -> map:int array -> t
(** [remap ~n t ~map] renumbers a snapshot: node [u] becomes [map.(u)], or
    disappears with its incident edges when [map.(u) < 0]. [map] must
    have length [node_count t] and be strictly increasing on the nodes it
    keeps, so rows stay in canonical order and nothing is re-sorted.
    [n] is the node count of the result; ids below [n] that no node maps
    to get empty rows. The result is
    bit-for-bit the [of_graph] freeze of the renumbered graph — the
    renumbering step [Scheme.apply_delta] runs before {!patch_rows} on a
    join or leave. Raises [Invalid_argument] on a malformed map or an [n]
    that cannot hold it. Cost: [O(n + m)] array passes. *)

val patch_rows : ?n:int -> t -> rows:int array -> edges:(int * float) array array -> t
(** [patch_rows t ~rows ~edges] is a fresh snapshot equal to [t] with the
    successor rows listed in [rows] replaced by [edges] — the delta-scoped
    re-freeze behind [Scheme.apply_delta]. [rows] must be strictly
    increasing; [edges.(i)] are the new [(dst, weight)] out-edges of
    [rows.(i)], sorted by [dst], weights positive and finite. [?n]
    (default [node_count t], may only grow) appends nodes
    [node_count t .. n - 1]; every appended row must appear in [rows]
    (possibly with no edges). Unpatched rows are copied by contiguous
    blits — no sort, no hashing — and the result is bit-for-bit identical
    to [of_graph] of the equivalent graph, including the canonical
    summation order of the weight caches. Cost: [O(n + m)] array copies
    versus [of_graph]'s hashtable iteration and [O(m log m)] sort. *)

val node_count : t -> int

val edge_count : t -> int

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val out_weight : t -> int -> float
(** Total weight leaving a node — an array read. *)

val in_weight : t -> int -> float
(** Total weight entering a node — an array read. *)

val edge_weight : t -> src:int -> dst:int -> float
(** Weight of the edge, [0.] if absent. Binary search within the row. *)

val iter_edges : (src:int -> dst:int -> float -> unit) -> t -> unit
(** Iterates in canonical order: increasing [src], then increasing
    [dst]. *)

val topo_order : t -> int array option
(** [Some order] listing all nodes with every edge going forward, or
    [None] on a directed cycle. Kahn's algorithm over the CSR rows; ties
    broken by smallest node index (same contract as {!Topo.sort}). *)

val is_acyclic : t -> bool
(** Like [topo_order <> None] but without the tie-breaking heap — a plain
    ring-buffer Kahn pass. *)

val find_cycle : t -> int list option
(** Node sequence of some directed cycle ([v1; ...; vk] with edges
    [v1->v2 ... vk->v1]), or [None] when acyclic. Iterative DFS with an
    explicit stack — safe on cycles of any length. *)

val min_incoming_cut : t -> src:int -> float * int
(** [(w, v)] where [v] minimizes {!in_weight} over all [v <> src]
    ([(infinity, src)] on a single-node snapshot). Equals the broadcast
    throughput on acyclic graphs — see {!Topo.min_incoming_cut} for the
    cut argument. A scan of the precomputed [in_wt] array. *)
