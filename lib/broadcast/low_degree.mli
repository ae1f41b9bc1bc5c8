(** Low-degree acyclic broadcast schemes from a valid word (Lemma 4.6).

    Given a word [w] valid for throughput [rate], the scheme is built by
    feeding each node, in word order, from the {e earliest} nodes that
    still have unused upload bandwidth — guarded supply first for open
    receivers (conservatism), open supply only for guarded receivers
    (firewall constraint). For the words produced by Algorithm 2 this
    yields the degree bounds of Theorem 4.1:

    - every guarded node [j]: [o j <= ceil (b j / rate) + 1];
    - at most one open node [i]: [o i <= ceil (b i / rate) + 3];
    - every other open node [i]: [o i <= ceil (b i / rate) + 2].

    For open-only instances the construction degenerates to Algorithm 1
    and the bound is [+1]. *)

val build : Platform.Instance.t -> rate:float -> Word.t -> Scheme.t
(** [build inst ~rate w] constructs the scheme artifact (provenance
    [Scheme.Theorem41], promised excess [+3], or [+1] when [m = 0]).
    Requires a sorted instance, [complete w inst] and
    [Word.feasible inst ~rate w]; raises [Invalid_argument] otherwise.
    Every non-source node receives exactly [rate]; the scheme is acyclic
    and respects the firewall constraint by construction. *)

val constructible : Platform.Instance.t -> rate:float -> Word.t -> bool
(** [constructible inst ~rate w] is [true] exactly when the pool
    accounting of {!build} succeeds on the same arguments — on a sorted
    instance and a complete word, the only way [build] can fail. It runs
    that accounting float for float but emits no edge and builds no
    scheme: linear time, no graph allocation. *)

val build_optimal : Platform.Instance.t -> float * Scheme.t
(** Convenience: [Greedy.optimal_acyclic] followed by {!build} — the full
    Theorem 4.1 pipeline. Returns [(T*ac, scheme)]. *)
