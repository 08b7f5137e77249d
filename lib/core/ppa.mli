(** Performance / power / area overhead of a hybrid versus its original —
    the three metric groups of Table I. *)

type overhead = {
  performance_pct : float;
      (** relative increase of the critical (longest endpoint) delay *)
  power_pct : float;  (** relative increase of total power *)
  area_pct : float;  (** relative increase of total cell area *)
  n_stts : int;  (** number of inserted STT LUTs *)
  base_delay_ps : float;
  hybrid_delay_ps : float;
  base_power_uw : float;
  hybrid_power_uw : float;
  base_area_um2 : float;
  hybrid_area_um2 : float;
}

type baseline
(** Cached base-side analyses (STA, activity, power, area) of one
    netlist under one library, so repeated evaluations against the same
    original pay for them once. *)

val baseline :
  ?sta:Sttc_analysis.Sta.t ->
  Sttc_tech.Library.t ->
  Sttc_netlist.Netlist.t ->
  baseline
(** [?sta] reuses a precomputed timing analysis when it was computed on
    this exact netlist value (physical equality). *)

val matches :
  baseline -> Sttc_tech.Library.t -> Sttc_netlist.Netlist.t -> bool
(** Built on this exact netlist value (physical equality) under an equal
    library: the only case in which a supplied baseline is reused. *)

val baseline_sta : baseline -> Sttc_analysis.Sta.t
(** The base timing analysis the baseline holds. *)

val evaluate :
  ?baseline:baseline ->
  Sttc_tech.Library.t ->
  base:Sttc_netlist.Netlist.t ->
  hybrid:Sttc_netlist.Netlist.t ->
  overhead
(** [hybrid] should be the programmed view so the power model sees real
    signal activities (the foundry view works too: unknown LUTs default to
    activity 0.5, and STT LUT power is activity-independent anyway).

    A supplied [?baseline] is used when it {!matches} [lib] and [base]
    (otherwise it is rebuilt).  The hybrid side is
    analyzed incrementally ({!Sttc_analysis.Sta.retime} /
    {!Sttc_analysis.Activity.refine}) when the hybrid is id-compatible
    with the base, and by the full analyses otherwise — bit-identical
    either way. *)

val pp : Format.formatter -> overhead -> unit
