(** Experiment E11 — validating the transport layer: the randomized
    chunk-exchange dataplane ({!Stream.Dataplane}) actually delivers the
    throughput computed by the overlay algorithms.

    The paper's architecture (Section II-C) computes an overlay with edge
    rates and delegates the actual data movement to Massoulié's
    randomized broadcast; this experiment closes the loop by simulating
    that transport on the overlays built here and measuring the achieved
    rate as a fraction of the computed one. Expected: efficiency
    approaching 1 as the chunk count grows (pipelining startup is the
    only loss), in both file and streaming modes. *)

type row = {
  overlay : string;
  rate : float;  (** computed overlay throughput *)
  chunks : int;
  efficiency : float;  (** achieved/computed, file mode *)
  stream_lag : float;  (** worst playout lag in chunk-times, streaming mode *)
}

val run_overlay :
  label:string -> Flowgraph.Csr.t -> rate:float -> chunks:int -> row
(** Runs the dataplane twice on the frozen overlay — file mode, then
    streaming — under [Oracle_reservoir], the reservoir-scan chunk
    selection of the reference simulator. *)

val compute : ?chunks:int -> unit -> row list
(** Overlays exercised: Figure 1's low-degree acyclic scheme, the
    Theorem 5.2 cyclic example, and a random 30-node Unif100 platform. *)

val print : ?chunks:int -> Format.formatter -> unit
