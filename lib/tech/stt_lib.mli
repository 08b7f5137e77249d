(** STT-MRAM LUT technology: the paper's Figure 1 reference data and the
    cells used by the hybrid flow.

    Two layers:

    - {!fig1_reference} embeds the published table (Suzuki-style MTJ LUT
      vs static CMOS, predictive 32 nm, normalized to CMOS) — the ground
      truth the paper takes from prior work [16, 9].
    - {!fig1_model} is an analytical circuit-style model (sense-amplifier
      read path + NMOS select tree, pre-charged every cycle) that
      regenerates the table's {e shape}: delay overhead shrinking with
      gate complexity, NOR favoured over NAND, active-power overhead
      shrinking as activity rises, standby power below CMOS except for
      high fan-in NAND/NOR.

    The {!lut} cells are 90 nm-calibrated absolute values consumed by the
    timing/power/area analyses of the hybrid flow (Table I).  Their key
    property, inherited from the technology: delay and power depend only
    on fan-in, never on the programmed function or the input activity. *)

type fig1_row = {
  gate : Sttc_logic.Gate_fn.t;
  delay_ratio : float;  (** LUT delay / CMOS delay *)
  active_power_ratio_10 : float;  (** at switching activity 10 % *)
  active_power_ratio_30 : float;  (** at 30 % *)
  standby_power_ratio : float;
  energy_per_switching_ratio : float;
}

val fig1_reference : fig1_row list
(** The six rows of the paper's Fig. 1: NAND2, NAND4, NOR2, NOR4, XOR2,
    XOR4. *)

val fig1_model : Sttc_logic.Gate_fn.t -> fig1_row
(** Analytical prediction for any supported 2-/3-/4-input gate. *)

val lut : int -> Cell.t
(** The STT LUT cell of a given fan-in (1..6 supported; the paper inserts
    2-4).  Delay/energy/area grow with fan-in only. *)

val write_energy_fj : float
(** Energy to program one MTJ cell — large (the technology's main cost),
    but paid only at configuration time, never during operation. *)

val write_time_ns : float
