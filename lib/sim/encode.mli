(** The netlist-to-CNF (Tseitin) encoder, and the miter and pin helpers
    every formula over it is built with.

    This is the only code that encodes a netlist as clauses.  Its callers:
    {!Equiv.check_sat} (the sign-off miter of two programmed netlists),
    [Sttc_attack.Sat_attack] (the combinational and the time-unrolled
    oracle-guided attacks) and [Sttc_attack.Tt_attack] (the targeted
    justify/sensitize phase).  [Sttc_attack.Encode] re-exports it.

    Each unprogrammed LUT contributes [2^arity] key variables, one per
    truth-table row; programmed LUTs and CMOS gates encode as fixed
    logic. *)

type keyed = {
  cnf : Sttc_logic.Cnf.t;
  inputs : (string * Sttc_logic.Cnf.lit) list;
      (** PI and flip-flop (state) literals, by name *)
  outputs : (string * Sttc_logic.Cnf.lit) list;
      (** PO literals then flip-flop D-input literals, by name
          (matching [Oracle.output_names] order) *)
  keys : (Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list;
      (** per-LUT key literals, row 0 first, in topological order; empty
          exactly when every LUT is programmed *)
  node_lits : Sttc_logic.Cnf.lit array;
      (** the literal carrying each node's signal, indexed by node id —
          lets callers constrain internal nets (targeted ATPG) *)
}

val encode :
  ?cnf:Sttc_logic.Cnf.t ->
  ?share_inputs:(string * Sttc_logic.Cnf.lit) list ->
  ?share_keys:(Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list ->
  Sttc_netlist.Netlist.t ->
  keyed
(** [encode nl] builds a fresh formula (or extends [cnf]).
    [share_inputs] reuses existing literals for the named inputs (to tie
    two copies to the same input); [share_keys] likewise reuses key
    literals. *)

val key_of_model :
  (Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list ->
  bool array ->
  (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list
(** [key_of_model keys model]: the bitstream a SAT model assigns to the
    key literals [keys] (a {!keyed} or {!unrolled} key list). *)

val miter :
  Sttc_logic.Cnf.t ->
  Sttc_logic.Cnf.lit list ->
  Sttc_logic.Cnf.lit list ->
  Sttc_logic.Cnf.lit list
(** [miter cnf xs ys] encodes one fresh XOR variable per pair of
    literals at the same position of [xs] and [ys], in list order, and
    returns them.  It adds no disjunction clause: the caller adds one,
    with or without an activation literal in front.  Raises
    [Invalid_argument] when the lists differ in length. *)

val bit_lits : Sttc_logic.Cnf.lit list -> bool array -> Sttc_logic.Cnf.lit list
(** [bit_lits lits bits]: for each literal [l] at position [i], [l] when
    [bits.(i)] holds and [-l] otherwise — the literals that are all true
    exactly when [lits] take the observed bits. *)

val pin : Sttc_logic.Cnf.t -> Sttc_logic.Cnf.lit list -> bool array -> unit
(** [pin cnf lits bits] adds one unit clause per literal of
    [bit_lits lits bits], fixing [lits] to the observed bits. *)

val restrict_keys :
  Sttc_logic.Cnf.t ->
  (Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list ->
  (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t list) list ->
  unit
(** [restrict_keys cnf keys candidates] confines the key literals of each
    LUT that [candidates] lists to one of its tables, through one fresh
    selector variable per table — the SAT attacks' model of a
    candidate-restricted cell.  A LUT without an entry keeps its full key
    space.  Raises [Invalid_argument] on an empty candidate list. *)

type unrolled = {
  u_cnf : Sttc_logic.Cnf.t;
  u_keys : (Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list;
  frame_pis : (string * Sttc_logic.Cnf.lit) list array;
      (** primary-input literals, one association list per frame *)
  frame_pos : (string * Sttc_logic.Cnf.lit) list array;
      (** primary-output literals per frame (no state outputs: the
          scan-disabled attacker cannot observe flip-flops) *)
}

val encode_unrolled :
  ?cnf:Sttc_logic.Cnf.t ->
  ?share_keys:(Sttc_netlist.Netlist.node_id * Sttc_logic.Cnf.lit array) list ->
  ?share_frame_pis:(string * Sttc_logic.Cnf.lit) list array ->
  frames:int ->
  Sttc_netlist.Netlist.t ->
  unrolled
(** Time-unrolled encoding for the sequential (scan-disabled) SAT attack:
    flip-flops start at the reset state (0) and each frame's next state
    feeds the following frame; LUT keys are shared across frames.
    [share_frame_pis] ties the per-frame inputs to an existing copy (for
    miters).  Raises [Invalid_argument] when [frames < 1]. *)
