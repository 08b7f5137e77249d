(** Hybrid STT-CMOS designs: a base CMOS netlist with a chosen set of gates
    replaced by reconfigurable STT LUT slots, plus the secret configuration
    bitstream that restores the original functionality.

    Three views exist of the same design:
    - the {e original} all-CMOS netlist,
    - the {e foundry view}, where every replaced gate is an unconfigured
      LUT (what an untrusted fab or reverse engineer sees),
    - the {e programmed} view, the foundry view with the bitstream
      installed (what ships after the design house configures it). *)

type t

val make :
  ?extra_inputs:(Sttc_netlist.Netlist.node_id * Sttc_netlist.Netlist.node_id list) list ->
  ?absorb:(Sttc_netlist.Netlist.node_id * Sttc_netlist.Netlist.node_id) list ->
  Sttc_netlist.Netlist.t ->
  Sttc_netlist.Netlist.node_id list ->
  t
(** [make nl gates] replaces each listed gate with an STT LUT slot and
    records the truth table that restores its function.  Two search-space
    expansions from Section IV-A.3 are available per selected gate:
    [extra_inputs] wires additional (logically ignored) inputs into
    specific LUTs, and [absorb] lists [(gate, driver)] pairs whose LUT
    realizes the {e complex function} gate-composed-with-driver in a
    single reconfigurable unit.  Raises [Invalid_argument] if a listed
    node is not a CMOS gate, an extra input would create a combinational
    cycle, or an absorb pair violates [Transform.absorb_driver]'s
    preconditions. *)

val original : t -> Sttc_netlist.Netlist.t
val foundry_view : t -> Sttc_netlist.Netlist.t
val programmed : t -> Sttc_netlist.Netlist.t

val lut_ids : t -> Sttc_netlist.Netlist.node_id list
val lut_count : t -> int

val bitstream : t -> (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list
(** The secret.  One entry per LUT, in id order. *)

val bitstream_bits : t -> int
(** Total configuration bits (sum of [2^arity]). *)

val program_with :
  t -> (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list -> Sttc_netlist.Netlist.t
(** Program the foundry view with an arbitrary candidate bitstream (used
    by attacks to test hypotheses). *)

val verify : ?method_:[ `Random of int | `Sat ] -> t -> Sttc_sim.Equiv.result
(** Sign-off check: programmed view equivalent to the original.
    Default [`Sat]. *)
