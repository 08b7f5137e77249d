(** Signal probability and switching-activity estimation.

    Signal probabilities propagate from the primary inputs (default 0.5)
    through exact per-gate truth-table evaluation under an input-
    independence assumption; sequential feedback is resolved by fixpoint
    iteration over the flip-flop state probabilities.  Switching activity
    per node is the temporal-independence estimate [2 p (1 - p)] — the
    alpha of the paper's Fig. 1 power columns.

    Every sweep runs over the netlist's cached
    {!Sttc_netlist.Netlist.program}, the same compiled form
    {!Sttc_sim.Simulator} evaluates, with each node's truth bits looked
    up once per call. *)

type t

val analyze :
  ?pi_probability:float ->
  ?max_iterations:int ->
  ?tolerance:float ->
  Sttc_netlist.Netlist.t ->
  t
(** Defaults: PI one-probability 0.5, 40 iterations, tolerance 1e-4.
    Unconfigured LUTs take probability 0.5. *)

val refine : t -> Sttc_netlist.Netlist.t -> t
(** [refine t nl] is [analyze nl] (default parameters), reusing [t]'s
    solution when that is provably exact: when [nl] is id-compatible with
    [t]'s netlist ({!Sttc_netlist.Netlist.kind_delta}) and every changed
    node keeps the same probability transfer function (e.g. gate→LUT
    replacements that keep the function), the base solution is returned
    as-is (counter [activity.refine.cone]).  Any other case runs the full
    fixpoint (counter [activity.refine.full]), as does a base computed
    with non-default parameters. *)

val switching : t -> Sttc_netlist.Netlist.node_id -> float
(** Per-cycle output switching activity in [0, 0.5]: [2 p (1 - p)] for
    the probability [p] that the node's signal is 1. *)

val average_switching : t -> float
(** Mean over combinational nodes, for reporting. *)
