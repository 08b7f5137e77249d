(** Shared machinery of the three selection algorithms (Section IV-A).

    All three start from the same sampled pool of longest non-critical I/O
    paths; they differ in which gates they take from it.  Candidate sets
    are timed through one persistent trial session per context
    ({!Sttc_analysis.Sta.trial} over a {!Sttc_netlist.Transform.Overlay}),
    whose answers are bit-identical to {!Sttc_analysis.Sta.analyze} on
    {!Sttc_netlist.Transform.replace_many} of the same set. *)

type context = {
  netlist : Sttc_netlist.Netlist.t;
  sta : Sttc_analysis.Sta.t;  (** timing of the unmodified netlist *)
  paths : Sttc_analysis.Paths.io_path list;  (** deepest first *)
  overlay : Sttc_netlist.Transform.Overlay.t;
      (** scratch replacement view over [netlist] *)
  trial : Sttc_analysis.Sta.trial;  (** timing of the [overlay] view *)
  feeds_endpoint : bool array;
      (** per node: inside some endpoint's combinational fanin cone *)
  target_mark : bool array;
      (** scratch for diffing candidate sets against the session state *)
}

val prepare :
  rng:Sttc_util.Rng.t ->
  ?fraction:float ->
  ?min_ffs:int ->
  ?sta:Sttc_analysis.Sta.t ->
  Sttc_tech.Library.t ->
  Sttc_netlist.Netlist.t ->
  context
(** Runs baseline STA, samples I/O paths (paper defaults: 2 % of
    components, at least two flip-flops), excludes paths containing the
    critical path, sorts deepest first.  [?sta] supplies a memoized base
    analysis (used when it was computed on this exact netlist value —
    physical equality — otherwise it is recomputed). *)

val replaceable : context -> Sttc_analysis.Paths.io_path -> Sttc_netlist.Netlist.node_id list
(** CMOS gates of a path (LUTs and sequential nodes excluded). *)

val pool : context -> Sttc_netlist.Netlist.node_id list
(** Union of replaceable gates across all sampled paths, deduplicated,
    in path order. *)

val timing_ok :
  context -> clock_ps:float -> Sttc_netlist.Netlist.node_id list -> bool
(** Would replacing the given gates keep the critical delay within
    [clock_ps]?  Successive queries on one context are diffed against the
    previously evaluated set and only the delta cone is re-propagated;
    delta gates disjoint from every endpoint cone are never propagated at
    all (counter [select.timing_early_out] when that covers the whole
    delta). *)

val trial_critical :
  context ->
  Sttc_netlist.Netlist.node_id list ->
  float * Sttc_netlist.Netlist.node_id list
(** Critical delay and one worst path of the netlist with the given gates
    replaced — what [Sta.critical_delay_ps] and [Sta.critical_path] of
    [Sta.analyze lib (replace_many netlist gates)] return, without the
    copy.  Diffed against the previous query like {!timing_ok}; the
    parametric repair loop reads both answers from one call per pass. *)
