(** Exhaustive configuration search and its cost model — the attack whose
    cost Eq. (3) bounds.

    Feasible only for a handful of configuration bits; beyond that the
    module reports the search-space size and the projected wall-clock at a
    measured or assumed candidate-testing rate, reproducing the paper's
    "more than 1000 years at one billion patterns per second" style of
    argument. *)

type outcome =
  | Broken of {
      bitstream : (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list;
      candidates_tested : Sttc_util.Lognum.t;
      seconds : float;
    }
  | Infeasible of {
      search_space : Sttc_util.Lognum.t;  (** 2^(config bits) *)
      projected_years : Sttc_util.Lognum.t;
      tested_rate_per_s : float;
          (** measured on a prefix of the space before giving up *)
    }

val run :
  ?max_bits:int ->
  ?check_vectors:int ->
  ?seed:int ->
  Sttc_core.Hybrid.t ->
  outcome
(** [max_bits] (default 18) caps the exhaustively searchable configuration
    size; larger hybrids return {!Infeasible} with a measured projection.
    A candidate survives when [check_vectors] (default 512) random
    combinational-view queries match the oracle; the first survivor is
    confirmed by SAT equivalence (and search continues past false
    positives). *)
