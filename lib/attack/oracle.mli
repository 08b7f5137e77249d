(** The attacker's black box: a programmed (configured) chip bought on the
    open market.

    The oracle exposes the combinational view — primary inputs and scan-
    accessible state in, primary outputs and next-state out — i.e. the
    strongest practical attacker, one with scan-chain access.  The paper
    notes real designs ship with scan disabled; the attack experiments
    quantify how much security remains {e even when} scan is open, and the
    query counter lets experiments report attack cost in oracle accesses
    (the unit of the paper's Fig. 3). *)

type t

val create : Sttc_core.Hybrid.t -> t
(** Builds the oracle from the secret programmed view. *)

val of_netlist : Sttc_netlist.Netlist.t -> t
(** From any fully-programmed netlist (for tests). *)

val input_names : t -> string list
(** PIs then flip-flop names — the assignment order for {!query}. *)

val query : t -> bool array -> bool array
(** One combinational-view evaluation.  Increments the counter. *)

val query_lanes : t -> int64 array -> int64 array
(** 64 parallel queries (counts as 64). *)

val queries : t -> int
(** Total patterns applied so far. *)

val query_sequence : t -> bool array list -> bool array list
(** Scan-disabled access: apply one primary-input vector per clock cycle
    starting from the reset state (all flip-flops 0) and observe only the
    primary outputs each cycle.  Counts one query per cycle.  This is the
    access model the paper assumes for deployed parts. *)
