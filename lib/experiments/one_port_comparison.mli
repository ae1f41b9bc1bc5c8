(** Experiment E16 (extension) — bounded multi-port versus one-port, the
    paper's Section II-A motivation made quantitative.

    On the same platform (out/in capacities, open/guarded classes), two
    pipelines broadcast the same number of chunks:

    - {e one-port}: randomized useful-chunk exchange directly on the
      platform with both endpoints exclusively busy per transfer
      ({!Stream.One_port});
    - {e bounded multi-port}: the Theorem 4.1 overlay (target rate clipped
      by the weakest downlink, which the paper assumes away but a fair
      comparison must honor) driven by the chunk-exchange simulator.

    Expected shape: with homogeneous capacities one-port is competitive
    (its classic domain); as heterogeneity grows, fast nodes get trapped
    behind slow receivers and multi-port pulls ahead — the motivating
    claim of the paper's model section. *)

type row = {
  scenario : string;
  heterogeneity : float;  (** max/min outgoing bandwidth in the platform *)
  one_port_rate : float;
  multi_port_rate : float;
  advantage : float;  (** multi-port / one-port achieved rates *)
}

val compute :
  ?nodes:int -> ?chunks:int -> ?seed:int64 -> ?source_bout:float ->
  scenario:string -> dist:Prng.Dist.t -> unit -> row
(** [source_bout] overrides the source's uplink (default: the strongest
    drawn value). *)

val print : Format.formatter -> unit
(** Scenarios: homogeneous, Unif100, PLab, Power2, and the paper's
    server-plus-DSL example. *)
