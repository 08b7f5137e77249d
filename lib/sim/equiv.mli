(** Equivalence checking between an original netlist and its protected
    (programmed) hybrid — the sign-off step of the Figure 2 flow.

    Sequential circuits are compared on their combinational view: primary
    inputs and flip-flop outputs are free variables (matched across the
    two netlists by name), and every primary output and every flip-flop
    D-input must implement the same function.  Because the hybrid flow
    preserves flip-flops and names, this is a sound and complete check for
    the transformations in this code base.

    Two engines: a SAT miter over {!Encode}'s formula (complete; every
    sign-off uses it) and random bit-parallel simulation (fast,
    incomplete).  Both pair the two netlists' inputs, outputs and
    flip-flops by name, never by position. *)

type failure = {
  witness : (string * bool) list;
      (** assignment to PIs and state inputs exposing the difference *)
  signal : string;  (** the PO name or flip-flop name that differs *)
}

type result = Equivalent | Different of failure | Inconclusive of string

val check_random :
  ?vectors:int -> seed:int -> Sttc_netlist.Netlist.t -> Sttc_netlist.Netlist.t -> result
(** [vectors] (default 4096) random assignments in bit-parallel batches.
    [Equivalent] here means "no difference found". *)

val check_sat : Sttc_netlist.Netlist.t -> Sttc_netlist.Netlist.t -> result
(** Complete: the solver runs without a conflict budget. *)
