(** Raw design graphs: the representation the structural rule pack runs
    on.

    [Netlist.t] enforces most structural invariants at construction time
    (no combinational cycles, no dangling references, unique names), so a
    finalized netlist can never exhibit the worst violations.  The lint
    rules therefore operate on this unvalidated mirror, which can be built
    from a finalized netlist ({!of_netlist}) {e or} assembled by hand —
    by tests exercising each rule, and by front ends that want to lint a
    design {e before} attempting to build it. *)

type kind =
  | Pi
  | Const of bool
  | Gate of Sttc_logic.Gate_fn.t
  | Lut of { arity : int; configured : bool }
  | Dff

type node = {
  name : string;
  kind : kind;
  fanins : int array;
      (** indices into [nodes]; out-of-range (e.g. [-1]) marks an
          unresolved reference *)
}

type t = {
  design : string;
  nodes : node array;
  outputs : (string * int) array;  (** primary outputs as (name, driver) *)
}

val of_netlist : Sttc_netlist.Netlist.t -> t
(** The mirror of a finalized netlist.  Its nodes share the netlist's
    fanin arrays (the ones {!Sttc_netlist.Netlist.fanins} returns) rather
    than copying them: they are read-only here, and no lint rule writes
    them.  Gates of one function share one [Gate] kind. *)

val is_combinational : kind -> bool
(** True for [Gate] and [Lut]. *)

val valid_ref : t -> int -> bool
