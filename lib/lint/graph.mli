(** Raw design graphs: the representation the structural rule pack runs
    on.

    [Netlist.t] enforces most structural invariants at construction time
    (no combinational cycles, no dangling references, unique names), so a
    finalized netlist can never exhibit the worst violations.  The lint
    rules therefore run on this unvalidated array of
    {!Sttc_netlist.Netlist.node} records, which is either the netlist's own
    ({!of_netlist}) or assembled by hand — by the tests that feed each rule
    loops, out-of-range references and duplicate names.  In a hand-built
    graph a fanin out of range (e.g. [-1]) marks an unresolved
    reference. *)

type t = {
  design : string;
  nodes : Sttc_netlist.Netlist.node array;
  outputs : (string * int) array;  (** primary outputs as (name, driver) *)
}

val of_netlist : Sttc_netlist.Netlist.t -> t
(** The graph of a finalized netlist.  Its nodes are the netlist's own
    records (the ones {!Sttc_netlist.Netlist.node} returns), not copies:
    no lint rule writes them. *)

val valid_ref : t -> int -> bool
