(** Truth-table extraction — the "testing technique" of Section IV-A.1.

    For every missing gate, the attacker seeks input patterns that
    (a) justify the gate's fanins to a chosen row while every other
    missing gate's influence is blocked, and (b) propagate the gate's
    output to an observation point.  When both hold, one oracle query
    reveals one truth-table row.

    Against {e independent} selection most rows resolve quickly; against
    {e dependent} / {e parametric} selection the interference of missing
    gates on each other's justification and propagation paths leaves the
    tables partial — exactly the asymmetry Eqs. (1) and (2) formalise.

    Pattern search is random (bit-parallel ternary screening), matching
    an ATPG-with-unknowns workflow. *)

type lut_progress = {
  lut : Sttc_netlist.Netlist.node_id;
  resolved_rows : int;
  total_rows : int;
  unreachable_rows : int;
      (** rows proved functionally irrelevant by the targeted phase: the
          input combination can never occur at the LUT's fanins, or its
          effect can never be sensitized to an observation point under any
          configuration of the other missing gates *)
}

type result = {
  per_lut : lut_progress list;
  fully_resolved : int;  (** LUTs with complete truth tables *)
  lut_count : int;
  resolution : float;  (** resolved rows / total rows, in [0,1] *)
  functional_resolution : float;
      (** (resolved + proven-unreachable) rows / total rows: 1.0 means the
          attacker knows everything that matters *)
  patterns_tried : int;
  oracle_queries : int;
  seconds : float;
}

val run :
  ?budget_patterns:int ->
  ?targeted:bool ->
  ?target_attempts:int ->
  ?seed:int ->
  Sttc_core.Hybrid.t ->
  result
(** Default budget: 20_000 candidate patterns.

    With [targeted:true] (default false), rows still unresolved after the
    random phase get an ATPG pass: a SAT query proposes an input pattern
    that justifies the row at the LUT's fanins and sensitizes its output
    to an observation point under {e some} assignment of the other
    missing gates; ternary simulation then certifies the pattern works for
    {e every} assignment before the oracle is spent on it
    ([target_attempts] proposals per row, default 4).  Against independent
    selection this pass typically completes the truth tables — the attack
    Eq. (1) prices; against dependent selection certification keeps
    failing, which is Eq. (2)'s whole point. *)
