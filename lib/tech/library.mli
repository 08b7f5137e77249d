(** Unified technology lookup used by the timing, power and area analyses.

    A library maps netlist node kinds to cells.  The default [cmos90]
    instance pairs the {!Cmos_lib} gates with {!Stt_lib} LUTs, the
    combination the hybrid flow evaluates. *)

type lut_style =
  | Stt  (** non-volatile MTJ LUTs — the paper's technology *)
  | Sram  (** volatile SRAM LUTs — the prior-work baseline [8] *)
  | Tvd  (** threshold-voltage-defined camouflaged cells — {!Tvd_lib} *)

type t

val cmos90 : t
(** The default hybrid library (90 nm CMOS + STT LUT cells). *)

val with_lut_style : t -> lut_style -> t
(** Swap the reconfigurable-cell technology, e.g. to price the same
    hybrid netlist in SRAM-LUT form for the Section II comparison. *)

val lut_style : t -> lut_style

val cell_of_kind : t -> Sttc_netlist.Netlist.kind -> Cell.t option
(** [None] for primary inputs and constants (they carry no cell). *)

val gate_cell : t -> Sttc_logic.Gate_fn.t -> Cell.t
val lut_cell : t -> int -> Cell.t
val dff_cell : t -> Cell.t

val node_delay_ps : t -> Sttc_netlist.Netlist.kind -> float
(** 0. for PIs and constants. *)

val node_area_um2 : t -> Sttc_netlist.Netlist.kind -> float
