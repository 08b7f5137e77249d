(** Netlist rewrites used by the gate selection-and-replacement stage.

    Replacement never changes node ids: a gate node becomes a LUT node
    with identical fanins (plus optional dummy inputs), so timing/power
    structures can be updated incrementally and selection sets remain
    valid across rewrites. *)

val replace_gate_with_lut :
  ?extra_inputs:Netlist.node_id list ->
  ?keep_function:bool ->
  Netlist.t ->
  Netlist.node_id ->
  Netlist.t
(** [replace_gate_with_lut t id] returns a copy of [t] where gate [id] is a
    LUT slot.  With [keep_function:true] (default) the LUT is configured
    with the gate's truth table extended over any [extra_inputs] (which are
    connected but logically ignored — the paper's search-space expansion
    trick); with [keep_function:false] the config is [None] (a missing
    gate).  Raises [Invalid_argument] if [id] is not a [Gate], or if the
    resulting arity exceeds [Truth.max_arity]. *)

val replace_many :
  ?keep_function:bool -> Netlist.t -> Netlist.node_id list -> Netlist.t
(** Replace each listed gate (duplicates ignored). *)

val strip_configs : Netlist.t -> Netlist.t
(** The foundry view: every LUT's config becomes [None]. *)

val program_luts :
  Netlist.t -> (Netlist.node_id * Sttc_logic.Truth.t) list -> Netlist.t
(** Install configurations.  Raises [Invalid_argument] for non-LUT ids or
    arity mismatches. *)

val absorb_driver :
  Netlist.t -> Netlist.node_id -> driver:Netlist.node_id -> Netlist.t
(** Realize a {e complex function} in one LUT (Section IV-A.3): gate [id]
    becomes a configured LUT computing [gate ∘ driver], its inputs being
    the driver's fanins followed by the gate's remaining fanins.  The
    absorbed driver must be a combinational gate whose only reader is
    [id] and that drives no primary output; it is rewired to a buffer
    placeholder that {!sweep} removes.  Raises [Invalid_argument] when
    the driver has other fanouts, drives a primary output, either node
    is not a CMOS gate, the driver is not a fanin of [id], or the merged
    arity exceeds [Truth.max_arity]. *)

val absorbable_driver :
  Netlist.t -> Netlist.node_id -> Netlist.node_id option
(** A fanin of the gate that {!absorb_driver} would accept, if any
    (smallest resulting arity first). *)

val sweep : Netlist.t -> Netlist.t * int array
(** Remove nodes that reach no primary output and no flip-flop (dead
    logic, e.g. placeholders left by {!absorb_driver}).  Returns the new
    netlist and a map from old to new node ids ([-1] for removed nodes).
    This is the only transform that renumbers nodes. *)
