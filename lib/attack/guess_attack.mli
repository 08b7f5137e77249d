(** Statistical function-inference — a stand-in for the machine-learning
    attacks of Section IV-A.3.

    Coordinate-ascent over the per-LUT candidate functions: starting from
    a random assignment of meaningful gates, repeatedly re-fit one LUT at
    a time to maximise agreement with the oracle on a random probe set.
    Against independent selection each LUT's best response is close to
    its true function (the probes act as a training set); against
    dependent selection the loss surface couples the LUTs and the ascent
    stalls in local optima — the paper's argument for why enlarging the
    correlated search space defeats learning attacks. *)

type result = {
  recovered : bool;  (** final hypothesis functionally equivalent *)
  agreement : float;
      (** fraction of probe responses matched by the final hypothesis *)
  rounds_used : int;
  oracle_queries : int;
  seconds : float;
  bitstream : (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list;
}

val run :
  ?rounds:int ->
  ?seed:int ->
  Sttc_core.Hybrid.t ->
  result
(** Defaults: 12 rounds, 1024 probe patterns.  Candidates per LUT are the
    meaningful gates of its arity plus the degenerate-free random tables
    observed to help on XOR-rich circuits. *)
