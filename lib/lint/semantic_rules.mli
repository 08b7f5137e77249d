(** Semantic (SEM) rule pack: what the circuit {e means}, proved.

    Where the structural pack checks graph shape and the security pack
    checks selection invariants, this pack reasons about values: a
    shared {!Dataflow} substrate (three-valued constant propagation,
    SCOAP testability, liveness, sampling) filters candidates, and a
    single incremental {!Prover} settles them.  Every SAT query runs
    under a conflict budget; exhaustion surfaces as the SEM006 warning,
    never as a missed error claim or a hang.

    {t
    | ID     | alias                   | severity | finding |
    |--------|-------------------------|----------|---------|
    | SEM001 | const-net               | warning  | net provably constant (propagation or SAT) |
    | SEM002 | dead-logic              | warning  | constant-masked logic, structurally connected but unobservable |
    | SEM003 | key-collapse            | error    | missing gate whose configuration influences no observation point |
    | SEM004 | redundant-node          | warning  | SAT-proved duplicate net (signature + support-hash filtered) |
    | SEM005 | const-lut-input         | warning  | unconfigured LUT fed by a proved constant (keyspace halves) |
    | SEM006 | sem-budget              | warning  | conflict budget exhausted on some queries |
    | SEM007 | easy-test-lut           | warning  | finite SCOAP cc/co with other missing gates at X |
    | SEM008 | independent-testability | error    | Eq. 1 holds for every missing gate (see below) |
    }

    SEM008 is the headline: a missing gate is {e independently
    resolvable} when every table row has an exact justification pattern
    (or is unreachable) and its output toggle propagates to a primary
    output or flip-flop D input with all other missing gates held at X —
    the static form of the paper's Eq. 1 testing attack, with the test
    length estimated as [sum npat * (D + 1)] clocks from the statically
    computed sequential depths.  The design-level error fires only when
    {e every} missing gate is resolvable in isolation (Eq. 1 verbatim) —
    independent-selection-grade weakness.  When the caller supplies the
    configuration bitstream, resolved gates are additionally substituted
    and the check re-runs (the closure an attacker would perform);
    gates that fall only in later closure rounds are reported as
    per-gate warnings, never as the error. *)

type view = {
  netlist : Sttc_netlist.Netlist.t;
      (** foundry view (or any netlist; the pack degrades gracefully
          when no unconfigured LUT is present) *)
  luts : Sttc_netlist.Netlist.node_id list;  (** unconfigured LUT slots *)
  configs : (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list;
      (** optional true bitstream, enabling the SEM008 closure rounds *)
  budget : int;  (** per-query conflict budget *)
}

val default_budget : int
(** 50_000 conflicts, matching the attack layer's ATPG budget. *)

val view :
  ?luts:Sttc_netlist.Netlist.node_id list ->
  ?configs:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list ->
  ?budget:int ->
  Sttc_netlist.Netlist.t ->
  view
(** Defaults: every unconfigured LUT of the netlist, no bitstream,
    {!default_budget}. *)

val rules : Structural.rule list
(** The catalog above, in ID order. *)

val run : view -> Diagnostic.t list
(** Run the pack.  Analyses are shared and lazy: the CNF is built only
    when a rule consults the prover. *)
