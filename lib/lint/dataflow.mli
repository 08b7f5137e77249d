(** Shared dataflow substrate of the semantic (SEM) rule pack.

    One [compute] per analysis run produces everything the rules read:

    - three-valued {e constant propagation} (all sources X — what the
      circuit forces regardless of inputs, state or missing-gate
      contents);
    - a {e taint} bit per node: combinationally downstream of an
      unconfigured LUT, where no two-valued claim is sound;
    - random known-source {e sampling}, one 64-lane pass of the
      ternary {!Sttc_sim.Simulator} with one sample per lane: a per-node
      response signature (the equivalence pre-filter) and a stuck-at
      candidate value (a net that varied in any sample is definitely not
      constant, so the SAT prover is only consulted about the
      survivors);
    - SCOAP-style {e controllability/observability} costs with X
      blocking: unconfigured LUT outputs are uncontrollable and
      unobservable-through, which makes finite [cc]/[co] a cheap
      sufficient signal of Eq. 1 independence;
    - backward {e liveness} with constant masking (dead-logic rule);
    - the {!Sttc_netlist.Query.cone_summary} bitset sweeps and the
      sequential depths [D_i] of Eqs. 1–2. *)

type t

val infinite : int
(** Saturation value of the SCOAP cost domain (uncontrollable /
    unobservable). *)

val compute : ?patterns:int -> ?seed:int -> Sttc_netlist.Netlist.t -> t
(** Run every analysis once.  [patterns] (default 24, capped at 30)
    random known-source simulations feed the signatures; [seed] makes
    them deterministic per run. *)

val const : t -> Sttc_netlist.Netlist.node_id -> Sttc_logic.Ternary.v
(** Known iff constant propagation alone forces the node's value. *)

val tainted : t -> Sttc_netlist.Netlist.node_id -> bool
(** Combinationally downstream of (or itself) an unconfigured LUT. *)

val stuck : t -> Sttc_netlist.Netlist.node_id -> Sttc_logic.Ternary.v
(** The node's value if it was the same known value in {e every} random
    sample — a stuck-at candidate for the prover.  [X] means the node
    varied (definitely not constant) or went unknown in some sample. *)

val signature : t -> Sttc_netlist.Netlist.node_id -> int
(** Packed three-valued responses over the samples; unequal signatures
    prove two nodes inequivalent. *)

val cc0 : t -> Sttc_netlist.Netlist.node_id -> int
val cc1 : t -> Sttc_netlist.Netlist.node_id -> int
(** SCOAP 0-/1-controllability ({!infinite} when uncontrollable without
    resolving a missing gate). *)

val co : t -> Sttc_netlist.Netlist.node_id -> int
(** SCOAP observability to any primary output or flip-flop D input,
    {!infinite} when every path crosses an unconfigured LUT. *)

val live : t -> Sttc_netlist.Netlist.node_id -> bool
(** False when no value change at the node can ever reach an observation
    point, accounting for constant-masked edges (AND with a stuck-0
    sibling, ...).  Optimistic across unconfigured LUTs. *)

val summary : t -> Sttc_netlist.Query.cone_summary
val seq_depth : t -> Sttc_netlist.Netlist.node_id -> int
(** [D_i] of Eqs. 1–2: flip-flops between the node and the nearest
    primary output ([max_int] when unreachable). *)
