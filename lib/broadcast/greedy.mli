(** Algorithm 2 of the paper ([GreedyTest]): linear-time feasibility of a
    target throughput on instances with open and guarded nodes, and the
    dichotomic search built on it for the optimal acyclic throughput
    [T*ac] (Theorem 4.1).

    The algorithm extends a conservative partial solution one node at a
    time, greedily preferring a guarded node (□) and falling back to an
    open node (©) when taking □ is impossible ([O(pi) < T]) or would make
    it impossible to continue ([O + G + b_next < 2 T]); a dedicated rule
    applies when a single guarded node remains, where the larger of the
    next two bandwidths is preferred. By Lemma 4.5 the algorithm returns a
    valid word iff [T <= T*ac]. *)

type decision = {
  letter : Platform.Instance.node_class;  (** letter appended at this step *)
  state : Word.state;  (** accounting after the step — Table I's columns *)
}

val test : Platform.Instance.t -> rate:float -> Word.t option
(** [test inst ~rate] is [Some w] with [w] a valid word for throughput
    [rate] if [rate <= T*ac inst] (within {!Util} tolerance), [None]
    otherwise. Linear time. Requires a sorted instance. *)

val test_trace : Platform.Instance.t -> rate:float -> Word.t option * decision list
(** Like {!test}, also returning the per-step decisions and accounting
    actually explored (Table I of the paper). On failure the trace covers
    the steps performed before the algorithm aborted. *)

val optimum : ?iterations:int -> Platform.Instance.t -> float
(** [optimum inst] is [T*ac], found by bisecting
    [\[0, cyclic_upper inst\]] with {!test}'s feasibility answer (the
    word itself is not built; [iterations] bisections, default 100),
    then nudged down (at most 8 relative [1e-9] steps) onto a rate
    {!test} accepts — [0.] when none is, or when the bound itself is 0. Requires a sorted instance with at least
    one non-source node. *)

val optimal_acyclic : ?iterations:int -> Platform.Instance.t -> float * Word.t
(** [optimal_acyclic inst] is [(optimum inst, w)] with [w] a witness word
    achieving it ([test] at that rate; the trivial all-open-then-guarded
    word when the optimum is 0). Same requirements as {!optimum}. *)
