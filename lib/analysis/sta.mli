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

val endpoint_arrivals : t -> (Sttc_netlist.Netlist.node_id * float) list
(** All endpoints with their arrival times, worst first. *)

(** {1 Incremental re-analysis}

    [retime] and trial sessions recompute arrivals only over the forward
    cone of changed nodes, using the exact per-node arithmetic of
    {!analyze} so results are bit-identical to a from-scratch analysis. *)

val retime :
  Sttc_tech.Library.t ->
  t ->
  Sttc_netlist.Netlist.t ->
  changed:Sttc_netlist.Netlist.node_id list ->
  t
(** [retime lib t nl ~changed] is [analyze lib nl], computed incrementally
    when [nl] is id-compatible with [t]'s netlist
    ({!Sttc_netlist.Netlist.kind_delta}): arrivals are re-propagated only
    over the forward cone of the kind delta plus [changed], and the
    endpoint ranking is repaired in place.  Falls back to a full
    {!analyze} (counter [sta.retime.full]) otherwise; the cone path bumps
    [sta.retime.cone] and records the visited-node count under
    [sta.retime.cone_nodes]. *)

type trial
(** A persistent trial session over a base analysis, for timing a
    slowly-changing set of speculative kind changes (e.g. gate→LUT
    candidate sets) without copying the netlist or the arrival array per
    candidate.  A selection loop evaluates sets that differ from the
    previous one by a handful of gates while the accumulated set grows
    into the hundreds; [trial_advance] moves the session's arrivals by
    just that delta, so per-query cost tracks the delta cone, not the
    union cone.  The worst endpoint is read off a lazily-repaired heap.
    The caller owns the set bookkeeping: [kind_of] must describe the
    complete current speculative view, and [seeds] every node whose kind
    changed since the previous call.  Structure (fanins) never changes.
    Not thread-safe. *)

val trial : Sttc_tech.Library.t -> t -> trial
(** A fresh session whose speculative view is the base netlist. *)

val trial_advance :
  trial ->
  kind_of:(Sttc_netlist.Netlist.node_id -> Sttc_netlist.Netlist.kind) ->
  Sttc_netlist.Netlist.node_id list ->
  int
(** Re-propagate arrivals over the forward cone of [seeds] and keep the
    result.  Returns the cone size; bumps [sta.retime.cone]
    and records [sta.retime.cone_nodes]. *)

val trial_current_delay_ps : trial -> float
(** Critical delay of the session's current speculative view — equals
    [critical_delay_ps (analyze lib current_netlist)] exactly. *)

val trial_current_critical : trial -> float * Sttc_netlist.Netlist.node_id list
(** Current delay plus one worst path, matching {!critical_path} on the
    current speculative view exactly. *)
