(** Differential power analysis on simulated power traces.

    Section II claims a security side-benefit of the technology: an STT
    LUT's power consumption is (almost) independent of its input data, so
    hybrid designs leak less through the power side channel than their
    all-CMOS originals.  This module makes that claim measurable: it
    collects per-cycle energy traces from bit-parallel simulation (CMOS
    gates burn energy per output toggle, STT LUTs burn their pre-charge
    energy every cycle regardless of data), groups the traces by the value
    of a target signal, and reports the classic difference-of-means
    statistic an attacker would exploit.

    A protected signal is hidden when [dom_relative] of the hybrid is well
    below that of the original circuit for the same target. *)

type result = {
  traces : int;  (** number of independent traces collected *)
  cycles : int;  (** clock cycles per trace *)
  mean_energy_fj : float;  (** per-cycle average across all traces *)
  dom_fj : float;
      (** max over cycles of |mean(energy | target=1) - mean(energy |
          target=0)| *)
  dom_relative : float;  (** [dom_fj / mean_energy_fj] *)
}

val measure :
  ?cycles:int ->
  ?batches:int ->
  Sttc_tech.Library.t ->
  Sttc_netlist.Netlist.t ->
  target:string ->
  result
(** [measure lib nl ~target] simulates [batches] (default 16) batches of
    64 parallel traces for [cycles] (default 32) cycles of random stimulus
    from reset and correlates total dynamic energy with the named signal's
    value.  The netlist must be simulatable (no unprogrammed LUT).  Raises
    [Invalid_argument] on an unknown target name. *)

val leakage_reduction :
  ?cycles:int ->
  ?batches:int ->
  Sttc_tech.Library.t ->
  original:Sttc_netlist.Netlist.t ->
  hybrid:Sttc_netlist.Netlist.t ->
  target:string ->
  float
(** [dom_relative original / dom_relative hybrid] for the same target and
    stimulus: how many times harder the hybrid makes the attack ( > 1
    means the defence helps; [infinity] when the hybrid's leakage vanishes
    entirely). *)
