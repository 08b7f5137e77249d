(** Synthesis-lite netlist cleanup: constant folding, buffer collapsing
    and dead-logic removal.

    The paper's Figure 2 flow hands the selection stage a {e synthesized}
    netlist; this pass stands in for the final cleanup a synthesis tool
    performs, and is also useful after transforms that leave placeholders
    behind ([Transform.absorb_driver]).  All rewrites preserve the
    circuit's function (checked by the test suite via SAT equivalence). *)

val optimize : Netlist.t -> Netlist.t
(** Two rewrites to a fixpoint, then [Transform.sweep]:
    - constant folding through gates and configured LUTs: a gate whose
      output is forced by constant inputs becomes a [Const]; gates with
      some constant inputs are simplified to smaller gates or buffers
      where the gate algebra allows (e.g. [AND(x, 1) -> BUF(x)],
      [NAND(x, 0) -> 1]);
    - buffer collapsing: every reader of a [BUF] is re-routed to the
      buffer's source, and readers of an inverter pair ([NOT (NOT x)])
      to [x]; the bypassed cells become dead.
    The result is functionally equivalent but renumbered (names are
    kept); use it before the selection flow, not between selection and
    programming. *)

val size_reduction : before:Netlist.t -> after:Netlist.t -> float
(** Percentage of combinational nodes removed. *)
