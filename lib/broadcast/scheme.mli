(** First-class broadcast-scheme artifacts.

    Every construction in this library used to hand around ad-hoc
    [(Platform.Instance.t, Flowgraph.Graph.t)] pairs, so each consumer
    (verifier, metrics, CLI, disk) re-established the invariants and
    re-froze its own {!Flowgraph.Csr} snapshot. A [Scheme.t] bundles the
    whole artifact once:

    - the {e sorted} instance the scheme was computed for;
    - the rated edge set, frozen at construction into a {!Flowgraph.Csr}
      snapshot shared by every query (the mutable graph view is
      materialized from it on demand);
    - provenance — which algorithm built it, the target rate [T] it was
      built for, and the additive degree bound it promises;
    - a memoized {!Verify.report}.

    Values are built only through the smart constructor {!create}, which
    enforces the paper's structural invariants (node count, per-node
    bandwidth [sum_j c i j <= b i], the guarded-to-guarded firewall) at
    construction time — so holding a [t] means holding a structurally
    valid scheme, and downstream layers stop re-checking.

    Laziness is single-threaded: the first {!report}/{!graph} call on a
    scheme must not race with another. Concurrent {e later} reads are
    fine (the caches are written once). Build and verify a scheme on one
    domain before fanning out.

    {2 Persistence}

    {!to_json}/{!of_json} give schemes a canonical, versioned on-disk
    form (format [bmp-scheme], version {!format_version}) with rates
    printed at 17 significant digits, so
    [of_json (to_json s)] reproduces the artifact exactly — identical
    graph, identical {!Verify.report}. The reader is strict: unknown
    fields, structural violations, non-finite numbers and unsupported
    versions are rejected with an explanatory message, never loaded. *)

type algorithm =
  | Algorithm1  (** Section III-B serve-in-order scheme (open-only, acyclic) *)
  | Theorem41  (** Algorithm 2 word + Lemma 4.6 low-degree builder *)
  | Min_depth  (** the depth-optimized variant of the Theorem 4.1 pipeline *)
  | Theorem52  (** the cyclic open-only construction *)
  | Repaired of algorithm
      (** patched under churn ({!Repair}); the payload is the provenance
          of the scheme the repair started from *)
  | Imported  (** loaded from disk or built outside this library *)

type provenance = {
  algorithm : algorithm;
  rate : float;  (** target rate [T] the scheme was built for; positive *)
  degree_bound : int option;
      (** promised additive outdegree excess over [ceil (b i / T)]:
          [Some 1] for Algorithm 1, [Some 3] for Theorem 4.1 (the
          worst-class bound), [Some 2] for Theorem 5.2 (with the absolute
          floor of 4 from the paper), [None] when no bound is promised
          (repaired or imported schemes) *)
}

type t

val create :
  ?eps:float -> provenance:provenance -> Platform.Instance.t -> Flowgraph.Graph.t -> t
(** [create ~provenance inst g] — the only way to obtain a scheme.
    Validates, under the {!Util} tolerance [eps]:

    - [Graph.node_count g = Instance.size inst];
    - [inst] is sorted (class-wise non-increasing bandwidth);
    - [provenance.rate] is finite and positive;
    - every node respects its outgoing bandwidth;
    - no guarded node sends to a guarded node.

    Incoming caps are {e not} an invariant — the constructions optimize
    upload bandwidth only, so a download-cap overrun is reported through
    [bin_ok] in {!report} instead of rejected here.

    Raises [Invalid_argument] with a ["Scheme.create: ..."] message
    otherwise. The edge set is frozen into a CSR snapshot before [create]
    returns, so later mutation of [g] cannot reach the artifact. *)

val apply_delta :
  ?eps:float ->
  ?node_map:int array ->
  base:t ->
  provenance:provenance ->
  Platform.Instance.t ->
  rows:int array ->
  Flowgraph.Graph.t ->
  t
(** [apply_delta ~base ~provenance inst ~rows g] — the delta-scoped
    constructor behind the churn fast path. Builds a scheme for [g] (the
    full post-event edge set) by {e patching} [base]'s frozen snapshot:
    only the successor rows listed in [rows] are re-read from [g] and
    re-frozen ({!Flowgraph.Csr.patch_rows}); every other row is blitted
    from the warm base snapshot, so the result is bit-for-bit identical
    to [create ~provenance inst g] at a fraction of the cost — no edge
    sort, no hashtable iteration, no full re-validation.

    [node_map] (default: the identity) is the event's renumbering, in
    [Repair]'s convention: [node_map.(v)] is the post-event id of base
    node [v], or [-1] if it departed. It must be strictly increasing on
    the survivors — a join or a leave, never the within-class
    permutation of a degrade — and the base snapshot is then renumbered
    first ({!Flowgraph.Csr.remap}, which drops the departed nodes'
    edges) before the rows are patched.

    The caller contracts that, relative to [base] renumbered through
    [node_map]:
    - every node absent from the map's image (a newcomer; without a map,
      every appended node) appears in [rows];
    - every surviving node keeps its bandwidth and class, unless it is in
      [rows];
    - [rows] (sorted ascending) covers every node whose out-edges or
      bandwidth changed — untouched rows of [g] must equal the
      renumbered base snapshot's.

    Validation is delta-scoped ({!Verify.row_violation}): bandwidth and
    firewall are re-checked on [rows] only; the base artifact certifies
    the rest. Raises [Invalid_argument] on a violated contract it can
    see (count mismatch, a malformed map, a newcomer missing from
    [rows], unsorted instance, bad rate, a disturbed row breaking an
    invariant). *)

val instance : t -> Platform.Instance.t
val graph : t -> Flowgraph.Graph.t
(** The rated edge set as a mutable-API graph, materialized from the
    frozen snapshot on first use and cached. Each call returns a fresh
    copy of the cached master, so mutating the result cannot
    desynchronize the mutable view from the frozen {!snapshot} every
    verifier and auditor reads — the copy is O(V + E), the same order as
    any useful traversal of it. *)

val provenance : t -> provenance
val rate : t -> float
(** [rate s] is [(provenance s).rate] — the target rate [T]. *)

val size : t -> int
(** Node count, [= Instance.size (instance s)]. *)

val edge_count : t -> int

val snapshot : t -> Flowgraph.Csr.t
(** The frozen CSR view of the scheme, built once inside {!create} —
    every verifier/metrics call on this artifact reuses it. *)

val report : t -> Verify.report
(** Full verification report ({!Verify.check_csr} on the cached
    snapshot), memoized. The structural fields are [true] by
    construction; the interesting outputs are [throughput], [acyclic]
    and [fast_path]. *)

val throughput : t -> float
(** [(report s).throughput]. *)

val is_acyclic : t -> bool

val achieves_target : t -> bool
(** Throughput at least [rate s] within the library's relative [1e-6]
    flow slack — the promise the constructor made, re-checked by the
    oracle. *)

val equal : t -> t -> bool
(** Same instance, identical edge set (exact weights) and identical
    provenance. *)

val algorithm_name : algorithm -> string
(** Canonical lowercase name used in serialized artifacts:
    ["algorithm1"], ["theorem41"], ["min-depth"], ["theorem52"],
    ["imported"], and ["repaired(<inner>)"] for repairs. *)

val algorithm_of_name : string -> (algorithm, string) result

val format_version : int
(** Version number written into (and required from) scheme files; this
    library writes and reads version [1]. *)

val to_json : t -> string
(** Canonical serialization: a single-line JSON document

    {v
{"format": "bmp-scheme", "version": 1,
 "provenance": {"algorithm": ..., "rate": ..., "degree_bound": ...},
 "instance": {"n": ..., "m": ..., "bandwidth": [...], "bin": ...},
 "graph": {"nodes": ..., "edges": [{"src": ..., "dst": ..., "rate": ...}, ...]}}
    v}

    with edges in canonical [(src, dst)] order and floats at 17
    significant digits. Byte-deterministic: the same artifact always
    serializes to the same bytes, independent of construction history or
    worker count. *)

val of_json : string -> (t, string) result
(** Strict inverse of {!to_json}: parses, validates the format tag and
    version, rebuilds the instance and graph, and re-runs the {!create}
    invariants — a scheme file that violates bandwidth or firewall
    constraints is rejected, not loaded. *)

val pp : Format.formatter -> t -> unit
(** One-line human summary (algorithm, rate, sizes). *)
