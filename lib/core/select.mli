(** Shared machinery of the three selection algorithms (Section IV-A).

    All three start from the same sampled pool of longest non-critical I/O
    paths; they differ in which gates they take from it.  Candidate sets
    are timed through one persistent {!Sttc_analysis.Sta.trial} session
    per context, whose answers are bit-identical to
    {!Sttc_analysis.Sta.analyze} on {!Sttc_netlist.Transform.replace_many}
    of the same set. *)

type context = {
  netlist : Sttc_netlist.Netlist.t;
  sta : Sttc_analysis.Sta.t;  (** timing of the unmodified netlist *)
  paths : Sttc_analysis.Paths.io_path list;  (** deepest first *)
  trial : Sttc_analysis.Sta.trial Lazy.t;
      (** timing session over [sta]; only parametric selection forces
          it *)
}

val prepare :
  rng:Sttc_util.Rng.t ->
  ?fraction:float ->
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
