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

val worst_paths : t -> k:int -> (float * Sttc_netlist.Netlist.node_id list) list
(** The [k] worst endpoints, each with its arrival time and one worst path
    (launch point first). *)

(** {1 Incremental re-analysis}

    [retime] and the trial engine recompute arrivals only over the forward
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
(** A reusable scratch workspace over a base analysis for evaluating
    speculative kind changes (e.g. gate→LUT candidate sets) without
    copying the netlist or the arrival array per candidate.  Each query
    propagates through the touched cone, reads the worst endpoint off a
    lazily-repaired heap, then undoes its writes — the workspace is ready
    for the next candidate immediately.  Not thread-safe. *)

val trial : Sttc_tech.Library.t -> t -> trial

val trial_delay_ps :
  trial ->
  kind_of:(Sttc_netlist.Netlist.node_id -> Sttc_netlist.Netlist.kind) ->
  Sttc_netlist.Netlist.node_id list ->
  float
(** [trial_delay_ps tr ~kind_of changed] is the critical delay the base
    netlist would have if every node's kind were [kind_of id] — structure
    (fanins) must be unchanged; only the kinds of [changed] nodes may
    differ from the base.  Equals
    [critical_delay_ps (analyze lib modified_netlist)] exactly. *)

(** {2 Persistent sessions}

    A selection loop evaluates a slowly-mutating replacement set: each
    candidate differs from the previous one by a handful of gates while
    the accumulated set grows into the hundreds.  Re-applying the whole
    set per query makes every evaluation pay the union cone;
    [trial_advance] instead moves the trial's state {e permanently} by
    just the delta, so per-query cost tracks the delta cone.  The caller
    owns the set bookkeeping: [kind_of] must describe the complete
    current speculative view, and [seeds] every node whose kind changed
    since the previous call.  The one-shot {!trial_delay_ps}
    remains usable mid-session and is then relative to the advanced
    state. *)

val trial_advance :
  trial ->
  kind_of:(Sttc_netlist.Netlist.node_id -> Sttc_netlist.Netlist.kind) ->
  Sttc_netlist.Netlist.node_id list ->
  int
(** Re-propagate arrivals over the forward cone of [seeds] and keep the
    result (no undo).  Returns the cone size; bumps [sta.retime.cone]
    and records [sta.retime.cone_nodes]. *)

val trial_current_delay_ps : trial -> float
(** Critical delay of the session's current speculative view — equals
    [critical_delay_ps (analyze lib current_netlist)] exactly. *)

val trial_current_critical : trial -> float * Sttc_netlist.Netlist.node_id list
(** Current delay plus one worst path, matching {!critical_path} on the
    current speculative view exactly. *)
