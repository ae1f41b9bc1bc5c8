(** Million-node discrete-event streaming dataplane.

    Runs the per-neighbor-queue broadcast dynamics (the execution model
    of "Optimal Distributed Broadcasting with Per-neighbor Queues",
    arXiv:1301.5107 — the setting the source paper's overlays target,
    "up to millions of online users") over a frozen {!Flowgraph.Csr}
    snapshot. Same model as the reference simulator kept as a test
    oracle ([test/oracle/sim.ml]) — every overlay arc is an independent
    pipe of one-chunk transfer time [chunk_size / c i j] that grabs a
    useful chunk whenever it is free — but all simulator state is
    preallocated flat arrays indexed by CSR arc ids:

    - chunk ownership and in-flight dedup as 63-bit-word bitsets;
    - per-arc transfer state and {e per-neighbor send-queue} backlogs
      ([qlen.(a) = ] number of chunks the tail owns and the head still
      lacks, maintained incrementally — exact occupancy, no scans);
    - an index-based 4-ary event heap ({!Eheap}) with an embedded
      free-list instead of the oracle's boxed priority queue.

    The event loop performs no per-event heap allocation in steady
    state ([bench/stream_bench.ml] gates minor-words/event), which is
    what makes n = 10^5–10^6 runs feasible: it measures what rate-only
    verification cannot — dissemination-delay distribution, queue
    occupancy, startup latency and achieved rate on the computed
    overlays at platform scale.

    It is the only chunk-transport engine of the library: [bmp stream],
    [bmp simulate], [bmp selfcheck], the transport experiments
    (E11, E14, E15, E16's multi-port half, E18) and the examples all run
    on it. Those that reproduce the reference simulator's numbers use
    {!Oracle_reservoir}. *)

type discipline =
  | Random_useful
      (** uniformly random useful chunk, one PRNG draw per pick (count
          candidates, then select) — the default, and the fast
          equivalent of {!Oracle_reservoir} (same distribution,
          different stream) *)
  | Oracle_reservoir
      (** uniformly random useful chunk via a reservoir scan consuming
          one draw per candidate in ascending chunk order —
          bit-compatible with the reference simulator in
          [test/oracle/sim.ml]: identical seeds give identical
          completion times, transfers and lags (the differential-oracle
          mode, and the one [bmp simulate] and the experiments use) *)
  | Serve_in_order
      (** lowest-index useful chunk — the per-neighbor-queue streaming
          discipline (playback order); PRNG-free and deterministic *)

type config = {
  chunks : int;  (** number of chunks, [>= 1] *)
  chunk_size : float;  (** data units per chunk, [> 0] *)
  seed : int64;
  max_time : float;  (** simulation horizon safeguard *)
  streaming : bool;
      (** live-stream release schedule: chunk [c] appears at the source
          at [c * chunk_size / rate] *)
  jitter : float;
      (** per-transfer log-uniform duration fluctuation in
          [[1/(1+jitter), 1+jitter]]; [0.] = ideal links. Same model and
          PRNG consumption as the reference simulator. *)
  dedup_inflight : bool;
      (** when [true], a chunk already flying toward a receiver is not
          picked by its other in-arcs *)
  discipline : discipline;
}

val default_config : config
(** 200 chunks of size 1, seed 42, horizon [1e6], file mode, no jitter,
    dedup on, [Random_useful]. Matches the reference simulator's default
    field-for-field on the shared fields. *)

type quantiles = { p50 : float; p90 : float; p99 : float; max : float }
(** [p50]/[p90]/[p99] are upper bin edges of a chunk-time/16 histogram
    (delay) or exact order statistics (startup); [max] is always
    exact. *)

type result = {
  delivered_all : bool;
  completion_time : float;  (** [infinity] when not delivered *)
  per_node_completion : float array;
  achieved_rate : float;
      (** [chunks * chunk_size / completion_time], [0.] if undelivered —
          converges to the verified broadcast rate as [chunks] grows *)
  efficiency : float;
      (** [ideal / completion_time] where
          [ideal = chunks * chunk_size / rate]; [0.] if undelivered *)
  events : int;  (** heap events processed (arrivals + releases) *)
  transfers : int;
  duplicates : int;
  max_lag : float;
      (** worst delivery delay behind release (file mode: worst absolute
          arrival time) — the playout delay a viewer needs *)
  delay : quantiles;
      (** per-delivery delay behind the chunk's release time, over all
          transfer deliveries *)
  startup : quantiles;
      (** first-chunk arrival time per non-source node — the time a
          viewer waits before playback can start *)
  peak_queue : int;  (** max per-arc send-queue backlog over the run *)
  mean_queue : float;
      (** time-averaged backlog per enabled arc over [[0, t_end]] *)
}

val discipline_name : discipline -> string
(** ["random"], ["oracle"], ["inorder"] — the CLI identifiers. *)

val discipline_of_name : string -> discipline option

val run : ?config:config -> Flowgraph.Csr.t -> rate:float -> result
(** [run csr ~rate] simulates the broadcast to completion (or the
    horizon). Node [0] is the source; [rate] must be positive. Arcs too
    slow to deliver one chunk within the horizon are disabled. The call
    allocates its arenas up front — O(n·k/63 + m) words — and then runs
    allocation-free. *)

val metrics_to_json :
  config:config -> nodes:int -> edges:int -> rate:float -> result -> string
(** Canonical single-line JSON (format ["bmp-stream-metrics"],
    version 1, floats at 17 significant digits, non-finite values as
    [null]) — byte-deterministic for a given (snapshot, config, rate),
    pinned by the [make stream-smoke] golden. *)
