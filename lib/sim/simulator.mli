(** Bit-parallel logic simulation: 64 independent patterns per step, in
    two- or three-valued logic.  This is the only netlist evaluator.

    The loop runs over the netlist's cached flat program
    ({!Sttc_netlist.Netlist.program}: one instruction per combinational
    node in topological order, a flat fanin array), shared with
    {!Sttc_analysis.Activity} and every other simulator of the same
    netlist; {!create} adds only the per-instance LUT configurations and
    the rails.  Every node holds two rails of 64 lanes:
    [ones] (lane known 1) and [zeros] (lane known 0); a lane set in
    neither is X.  Gates follow the pessimistic semantics of
    {!Sttc_logic.Ternary.eval_gate}, configured LUTs those of
    {!Sttc_logic.Ternary.eval_truth}, which stay as the scalar reference
    the tests compare against lane by lane.

    The two-valued interface ({!step}, {!eval_comb}, ...) runs the same
    loop with [zeros = lnot ones]: lane [i] of every [int64] word is
    pattern [i].  Flip-flops hold state across {!step} calls; {!reset}
    clears them to 0.  LUT slots evaluate their programmed configuration;
    {!create} raises on an unprogrammed LUT unless an override
    configuration is supplied — this is exactly the information asymmetry
    the defence creates, and the attack code exploits the same interface.
    {!create_ternary} instead lets unprogrammed LUTs output X, the
    attacker's view of the foundry netlist. *)

type t

val create :
  ?configs:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list ->
  Sttc_netlist.Netlist.t ->
  t
(** [configs] override/supply LUT configurations without rewriting the
    netlist.  Raises [Invalid_argument] if any LUT remains unconfigured or
    an override has the wrong arity. *)

val create_ternary :
  ?configs:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list ->
  Sttc_netlist.Netlist.t ->
  t
(** Like {!create}, but a LUT left unconfigured outputs X in every lane. *)

val reset : t -> unit
(** All flip-flops to 0 in every lane. *)

val set_state : t -> int64 array -> unit
(** Flip-flop values in [Netlist.dffs] order. *)

val state : t -> int64 array
(** The flip-flops' [ones] rail. *)

val step : t -> int64 array -> int64 array
(** [step t pis] evaluates one clock cycle: combinational logic under the
    given primary-input lanes (in [Netlist.pis] order), returns the
    primary-output lanes (in [Netlist.outputs] order), then updates the
    flip-flops.  Raises [Invalid_argument] on a PI-count mismatch. *)

val eval_comb : t -> int64 array -> int64 array
(** Like {!step} but without the state update (outputs of the current
    combinational evaluation). *)

val node_values : t -> int64 array
(** Per-node values of the latest evaluation (after {!step} or
    {!eval_comb}). *)

(** {2 Rails}

    Three-valued access.  A lane must not be set in both rails of one
    input. *)

val set_state_rails : t -> ones:int64 array -> zeros:int64 array -> unit
(** Flip-flop rails in [Netlist.dffs] order; [zeros = ones = 0] makes the
    state X. *)

val eval_rails : t -> ones:int64 array -> zeros:int64 array -> unit
(** Evaluate the combinational logic under primary-input rails (in
    [Netlist.pis] order) and the current state rails.  Read the result
    with {!ones} and {!zeros}. *)

val ones : t -> Sttc_netlist.Netlist.node_id -> int64
(** Lanes where the node was known 1 in the latest evaluation. *)

val zeros : t -> Sttc_netlist.Netlist.node_id -> int64
(** Lanes where the node was known 0 in the latest evaluation. *)
