(** Technology cell descriptors shared by the CMOS and STT libraries.

    Units: delay in picoseconds, switching energy in femtojoules, leakage
    (standby) power in nanowatts, area in square micrometres. *)

type style =
  | Cmos  (** static custom CMOS gate *)
  | Stt_lut  (** non-volatile MTJ-based reconfigurable LUT *)
  | Tvd
      (** threshold-voltage-defined camouflaged cell: a static CMOS-style
          gate whose function is set by the implant, so its power is
          activity dependent like any other gate *)
  | Sequential  (** D flip-flop *)

type t = {
  cell_name : string;
  style : style;
  arity : int;
  delay_ps : float;  (** worst-case pin-to-output delay *)
  switch_energy_fj : float;
      (** energy per output switching event (CMOS, DFF); for STT LUTs this
          is the per-cycle read/pre-charge energy, burned every clock
          independent of data activity *)
  leakage_nw : float;
  area_um2 : float;
}

val by_arity : (int -> t) -> int -> t
(** [by_arity make] behaves as [make], with the cells of arity
    1..{!Sttc_logic.Truth.max_arity} built once up front: the analyses
    look a cell up per node.  Other arities still go to [make] (which
    raises on them). *)

val activity_independent : t -> bool
(** True for STT LUTs: their active power does not depend on input data
    activity (Section III), the property that hardens them against
    power side channels. *)

val dynamic_power_uw :
  t -> activity:float -> clock_ghz:float -> float
(** Average dynamic power.  For CMOS/DFF cells this is
    [activity * E_sw * f]; for STT LUTs it is [E_sw * f] regardless of
    [activity]. *)
