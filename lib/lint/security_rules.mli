(** Security rule pack: invariants of the paper's three selection
    algorithms (Section IV-A, Eqs. 1-3) checked on a hybrid design.

    The pack runs on a {!view}: the foundry netlist (missing gates as
    unconfigured LUTs), the list of missing-gate ids, and optional
    context — which algorithm produced the selection, the parametric
    selection metadata, and the original netlist for timing comparison.
    A malformed hybrid silently produces wrong security numbers; these
    rules catch it before the attack/PPA pipelines burn time on it.

    {t
    | ID     | alias               | severity | gated on | finding |
    |--------|---------------------|----------|----------|---------|
    | SEC001 | trivial-lut         | warning  | —        | isolated LUT trivially justifiable and propagatable (Eq. 1 attack surface) |
    | SEC002 | broken-chain        | error    | dependent | LUT outside every LUT-to-LUT dependency chain (Eq. 2) |
    | SEC003 | missing-neighbour   | error    | parametric meta | recorded off-path neighbourhood gate not replaced (Eq. 3) |
    | SEC004 | unobservable-lut    | error    | —        | LUT output reaches no primary output (zero corruptibility) |
    | SEC005 | timing-violation    | error/warning | original | post-replacement critical delay beyond the clock budget |
    | SEC006 | config-leak         | error    | —        | foundry view carries a programmed configuration (secret leak) |
    | SEC007 | not-a-lut           | error    | —        | listed missing-gate id is not a LUT slot |
    }

    SEC005 is an error only when the selection claimed to be
    parametric-aware {e and} a replacement LUT sits on the violating
    critical path; otherwise the (expected) slowdown is reported as a
    warning. *)

type algorithm = Independent | Dependent | Parametric

type parametric_meta = {
  usl : Sttc_netlist.Netlist.node_id list;
      (** unselected on-path gates (Algorithm 2's USL) *)
  neighbours : Sttc_netlist.Netlist.node_id list;
      (** off-path neighbourhood gates the closure replaced *)
}

type view = {
  foundry : Sttc_netlist.Netlist.t;
  luts : Sttc_netlist.Netlist.node_id list;
  algorithm : algorithm option;
  meta : parametric_meta option;
  original : Sttc_netlist.Netlist.t option;
  clock_factor : float;
      (** clock budget as a multiple of the original critical delay *)
}

val view :
  ?algorithm:algorithm ->
  ?meta:parametric_meta ->
  ?original:Sttc_netlist.Netlist.t ->
  ?clock_factor:float ->
  foundry:Sttc_netlist.Netlist.t ->
  luts:Sttc_netlist.Netlist.node_id list ->
  unit ->
  view
(** Defaults: no algorithm/meta/original, clock factor 1.08 (the paper's
    worst accepted degradation).  SEC005 times both netlists under
    {!Sttc_tech.Library.cmos90}. *)

val rules : Structural.rule list
(** The catalog above, in ID order. *)

val run : view -> Diagnostic.t list
