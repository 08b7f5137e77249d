(** Exhaustive configuration search and its cost model — the attack whose
    cost Eq. (3) bounds.

    The attacker knows the candidate family, so the space is
    {!Sttc_backend.Backend.search_space}: [2^(config bits)] under STT, the
    family product under TVD.  Past a small space the module reports it
    and the projected wall-clock at a measured candidate rate, the
    paper's "more than 1000 years at 1e9 patterns per second" argument. *)

type outcome =
  | Broken of {
      bitstream : (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list;
      candidates_tested : Sttc_util.Lognum.t;
      seconds : float;
    }
  | Infeasible of {
      search_space : Sttc_util.Lognum.t;  (** the family's keyspace *)
      projected_years : Sttc_util.Lognum.t;
      tested_rate_per_s : float;
          (** measured on a prefix of the space before giving up *)
    }

val run :
  ?max_bits:int ->
  ?seed:int ->
  ?candidates:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t list) list ->
  Sttc_core.Hybrid.t ->
  outcome
(** [candidates] are the SAT attacks' per-LUT lists; an unlisted LUT is
    free.  [max_bits] (default 18) caps the search at exactly
    [2^max_bits] candidates, past which it returns {!Infeasible} with a
    measured projection.  A survivor of 512 random oracle
    queries is confirmed by SAT equivalence (the search
    continues past false positives).
    @raise Invalid_argument if [max_bits] is outside [[0, 62]] or no
    candidate is the key. *)
