(** Stochastic MTJ write-channel model — the device-level reality behind
    {!Sttc_core.Provision}'s programming step.

    Real STT-MRAM writes are probabilistic: the switching current only
    makes the flip {e likely}, a fraction of cells are stuck at their
    as-fabricated state, and raising the write current (at an energy
    cost) lowers the transient error rate.  A {!channel} is a
    deterministic simulation of one die's configuration memory: every
    cell's fate is derived from the channel seed and the cell address
    alone, so two channels with the same seed agree on every cell
    regardless of write order — the property that makes fault-injection
    experiments reproducible.

    Cells are addressed by (LUT instance name, cell index).  Indices
    [0 .. rows-1] hold the truth-table rows; higher indices are used by
    the provisioner for spare rows and ECC parity cells. *)

type spec = {
  write_error_rate : float;
      (** per-attempt probability that the cell fails to switch and
          retains its previous value (transient write failure) *)
  stuck_cell_rate : float;
      (** per-cell probability that the cell is permanently stuck at its
          as-fabricated value — no write ever changes it *)
}

val spec :
  ?write_error_rate:float ->
  ?stuck_cell_rate:float ->
  unit ->
  spec
(** By default a 1e-3 write-error rate and no stuck cells.  Raises [Invalid_argument] on rates outside [0, 1]. *)

type channel

val channel : ?seed:int -> spec -> channel
(** A fresh die.  Every cell starts at a deterministic as-fabricated
    value derived from [seed] (default 0) and the cell address. *)

val write :
  channel -> lut:string -> cell:int -> ?escalation:int -> bool -> bool
(** [write ch ~lut ~cell target] attempts to store [target] and returns
    the value the cell actually holds afterwards (the read-back of a
    program-verify cycle).  [escalation] (default 0) selects the write
    current: step [k] divides the transient error rate by [10 ^ k]
    (a higher write current). *)

val read : channel -> lut:string -> cell:int -> bool
(** Current cell content (as-fabricated value if never written). *)

val is_stuck : channel -> lut:string -> cell:int -> bool
(** Whether the cell is permanently stuck (diagnosis, not part of the
    attacker-visible interface). *)

val attempts : channel -> int
(** Total write attempts issued so far. *)

val energy_units : channel -> float
(** Sum over attempts of [10 ^ escalation] — the write
    energy spent, in units of one nominal-current MTJ write. *)

val verify_reads : channel -> int
(** Read-backs performed ({!write} counts one per attempt, {!read} one
    per call). *)
