(** Broadcast under the classical one-port model — the baseline the paper
    argues against (Section II-A).

    In the one-port model every node engages in at most one transfer at a
    time, in each direction: while a server pushes a chunk to a slow DSL
    peer it is {e blocked}, even though its uplink could serve dozens of
    peers concurrently — the paper's motivating complaint ("it is
    unreasonable to assume that a 10GB/s server may be kept busy for 10
    seconds while communicating a 10MB data file to a 1MB/s DSL node").

    This simulator runs randomized useful-chunk broadcast directly on the
    platform (no overlay: any open pair and open-guarded pairs may talk,
    guarded-guarded pairs may not), with the pairwise rate
    [min (bout i) (bin j)] and both endpoints exclusively busy for the
    transfer's duration. Comparing its achieved rate with the bounded
    multi-port overlay pipeline on the same platform (experiment E16)
    quantifies how much the multi-port model buys on heterogeneous
    platforms — and how little on homogeneous ones.

    Transfers run on {!Eheap}, whose equal-time events pop in FIFO
    order, so a run is a pure function of the platform and the config. *)

type config = {
  chunks : int;
  chunk_size : float;
  seed : int64;
  max_time : float;
}

val default_config : config
(** 100 chunks of size 1, seed 42, horizon [1e8]. *)

type result = {
  delivered_all : bool;
  completion_time : float;
  achieved_rate : float;
      (** [chunks * chunk_size / completion_time]; [0.] if undelivered *)
  transfers : int;
}

val simulate :
  ?config:config ->
  bout:float array ->
  bin:float array ->
  guarded:bool array ->
  unit ->
  result
(** [simulate ~bout ~bin ~guarded] broadcasts from node [0] (which must be
    open) to everyone. Arrays must have equal length [>= 1]; bandwidths
    must be positive for reachable progress. *)
