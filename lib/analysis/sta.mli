(** Static timing analysis.

    Sequential model: primary inputs and constant drivers launch at time
    0; flip-flop outputs launch at the cell's clk-to-q delay; a
    combinational node's arrival is the worst fanin arrival plus its cell
    delay.  Endpoints are flip-flop D-inputs and primary-output drivers.
    The critical path delay is the worst endpoint arrival — the quantity
    whose relative increase is the paper's "performance degradation". *)

type t

val analyze : Sttc_tech.Library.t -> Sttc_netlist.Netlist.t -> t

val netlist : t -> Sttc_netlist.Netlist.t
(** The netlist this analysis was computed on. *)

val arrival_ps : t -> Sttc_netlist.Netlist.node_id -> float
(** Worst-case arrival time at the node's output. *)

val critical_delay_ps : t -> float
(** Worst endpoint arrival = minimum usable clock period (ps). *)

val critical_path : t -> Sttc_netlist.Netlist.node_id list
(** One worst path, launch point first, endpoint last (combinational
    segment only: the nodes between, and including, the launching source
    and the endpoint). *)

val max_frequency_ghz : t -> float

(** {1 Incremental re-analysis}

    [retime] and trial sessions recompute arrivals only over the forward
    cone of changed nodes, using the exact per-node arithmetic of
    {!analyze} so results are bit-identical to a from-scratch analysis. *)

val retime : Sttc_tech.Library.t -> t -> Sttc_netlist.Netlist.t -> t
(** [retime lib t nl] is [analyze lib nl], computed incrementally when
    [nl] is id-compatible with [t]'s netlist
    ({!Sttc_netlist.Netlist.kind_delta}): arrivals are re-propagated only
    over the forward cone of the kind delta, and the endpoint ranking is
    repaired in place.  Falls back to a full {!analyze} (counter
    [sta.retime.full]) otherwise; the cone path bumps [sta.retime.cone]
    and records the visited-node count under [sta.retime.cone_nodes]. *)

type trial
(** A persistent trial session over a base analysis: the timing of the
    base netlist with a set of its gates replaced by LUTs, for a
    selection loop that times slowly-changing candidate sets without
    copying the netlist or the arrival array per candidate.  The session
    owns the replaced set; {!trial_set} moves its arrivals by the delta
    between the requested set and the current one, so per-query cost
    tracks the delta cone, not the union cone.  The worst endpoint is
    read off a lazily-repaired heap.  Not thread-safe. *)

val trial : Sttc_tech.Library.t -> t -> trial
(** A fresh session with nothing replaced. *)

val trial_set : trial -> Sttc_netlist.Netlist.node_id list -> unit
(** Make the given gates the replaced set.  Only the gates that joined or
    left it are re-propagated, and only those inside some endpoint's
    combinational fanin cone: the others cannot move an endpoint arrival
    (counter [select.timing_early_out] when that covers the whole delta).
    A propagation bumps [sta.retime.cone] and records
    [sta.retime.cone_nodes].  Raises [Invalid_argument] on a node id out
    of range or a node that is not a CMOS gate. *)

val trial_current_delay_ps : trial -> float
(** Critical delay of the base netlist with the current set replaced —
    equals [critical_delay_ps (analyze lib (replace_many netlist set))]
    exactly. *)

val trial_current_critical : trial -> float * Sttc_netlist.Netlist.node_id list
(** Current delay plus one worst path, matching {!critical_path} on the
    replaced netlist exactly. *)
