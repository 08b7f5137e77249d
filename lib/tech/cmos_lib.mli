(** A 90 nm-flavoured static CMOS standard-cell library.

    Cell characteristics come from a small logical-effort-style analytical
    model rather than a foundry kit: delay grows with fan-in through
    series-transistor stacks (NOR suffers more than NAND because of the
    weaker PMOS pull-up), switching energy and area grow with transistor
    count, and leakage benefits from the stacking effect in high fan-in
    NAND/NOR — the qualitative behaviour Section III discusses. *)

val dff : Cell.t

val gate : Sttc_logic.Gate_fn.t -> Cell.t
(** Cell for a combinational gate function.  Raises [Invalid_argument] on
    arities outside the supported range (1..6). *)

(* Model parameters, exposed for documentation and tests. *)

val transistor_count : Sttc_logic.Gate_fn.t -> int
