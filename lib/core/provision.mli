(** Post-fabrication configuration — the step that closes the paper's
    threat model: the foundry ships unconfigured parts, the design house
    (or an authorized vendor) programs the STT LUTs and only then does the
    chip compute anything useful.

    This module handles the bitstream as an artefact: a stable text
    serialization keyed by LUT instance names (robust against node
    renumbering across file round-trips), the programming-cost model
    derived from the technology constants (MTJ writes are the expensive
    operation of the technology, but happen once per part) — and the
    {e resilient} programming flow: MTJ writes are stochastic, so
    {!program} runs a program-verify-retry loop against an explicit
    {!Sttc_fault.Mtj.channel}, optionally escalating the write current,
    remapping unprogrammable rows to spare cells and protecting each LUT
    with a SECDED code, and classifies the result instead of raising. *)

type entry = {
  lut_name : string;
  config : Sttc_logic.Truth.t;
}

val of_hybrid : Hybrid.t -> entry list
(** Name-keyed form of the secret bitstream, in LUT id order. *)

val to_string : entry list -> string
(** One line per LUT: [name rows], e.g. ["u42 0110"], preceded by a
    comment header. *)

val parse : string -> entry list
(** Inverse of {!to_string}.  Tolerates trailing whitespace, blank lines
    and CRLF line endings.  Raises [Failure] — always with a
    ["bitstream:<line>:"] prefix, never any other exception — on
    malformed rows, non-power-of-two row counts, oversized tables and
    duplicate LUT names. *)

val apply :
  Sttc_netlist.Netlist.t -> entry list -> Sttc_netlist.Netlist.t
(** Program a foundry-view netlist (matching LUTs by name) through an
    ideal write channel.  Raises [Invalid_argument] when a named LUT is
    missing, is not a LUT, has the wrong arity, or when unconfigured LUTs
    remain afterwards.  {!program} is the fault-aware equivalent. *)

type cost = {
  mtj_cells : int;  (** total configuration bits written *)
  cell_noun : string;
      (** the backend's word for one programmable cell ("MTJ", "TVD") *)
  write_energy_nj : float;
  write_time_us : float;
      (** serial programming, one cell at a time — worst case *)
  verify_cycles : int;
      (** read-back cycles to confirm the configuration *)
}

val programming_cost : ?backend:Sttc_backend.Backend.t -> Hybrid.t -> cost
(** Ideal-channel cost: one write and one verify per configuration bit,
    priced with the backend's per-cell write energy/time (default
    {!Sttc_backend.Backend.stt}). *)

val pp_cost : Format.formatter -> cost -> unit

(** {1 Programming under write faults} *)

type resilience = {
  retry_budget : int;
      (** extra write attempts per cell after a failed verify (0 = one
          shot, the legacy behaviour) *)
  escalate : bool;
      (** raise the write current on each retry — each escalation step
          divides the transient error rate and multiplies the per-write
          energy by {!Sttc_fault.Mtj}'s fixed factor of 10 *)
  ecc : bool;
      (** store a per-LUT SECDED parity word ({!Sttc_fault.Ecc}) in extra
          MTJ cells; one bad cell per LUT is then corrected at read-out *)
  spare_rows : int;
      (** spare MTJ cells per LUT; a row whose cell stays wrong through
          the whole retry budget is remapped to a spare *)
}

val no_resilience : resilience
(** [{ retry_budget = 0; escalate = false; ecc = false; spare_rows = 0 }] *)

val default_resilience : resilience
(** [{ retry_budget = 3; escalate = true; ecc = true; spare_rows = 2 }] *)

type failure_cause =
  | Missing_lut of string  (** bitstream names a node the netlist lacks *)
  | Not_a_lut of string
  | Arity_mismatch of { lut_name : string; expected : int; got : int }
  | Duplicate_entry of string
  | Unconfigured of string list
      (** LUT slots the bitstream never mentions *)
  | Unprogrammable of (string * int) list
      (** (LUT, row) cells still wrong after retries, spares and ECC *)

val failure_to_string : failure_cause -> string

type outcome =
  | Programmed  (** the exact bitstream is stored *)
  | Degraded of { corrected_bits : int; spared_bits : int }
      (** the stored image differs from the bitstream, but ECC
          correction and/or spare-row remapping restore every
          configuration bit at read-out — the part is shippable *)
  | Failed of failure_cause

type program_report = {
  outcome : outcome;
  view : Sttc_netlist.Netlist.t option;
      (** the effective programmed view (after ECC correction and spare
          remapping) — present even for [Failed Unprogrammable], where it
          carries the wrong bits, so experiments can measure the damage;
          [None] only for structural failures *)
  retried_bits : int;  (** cells that needed at least one rewrite *)
  corrected_bits : int;  (** wrong cells repaired by ECC at read-out *)
  spared_bits : int;  (** rows remapped to spare cells *)
  failed_bits : (string * int) list;
  write_attempts : int;
  cost : cost;
      (** as actually spent: an escalated write weighs 10 per
          escalation step ({!Sttc_fault.Mtj}'s fixed factor), verify
          cycles counted per read-back *)
}

val program :
  ?resilience:resilience ->
  channel:Sttc_fault.Mtj.channel ->
  Sttc_netlist.Netlist.t ->
  entry list ->
  program_report
(** Program a foundry view through a stochastic write channel
    (default resilience: {!no_resilience}), pricing the cost report with
    the MTJ write constants of {!Sttc_backend.Backend.stt}.  Never raises
    on device faults or bitstream/netlist mismatches — every anomaly is
    classified in [outcome]. *)
