(** Three-valued logic (0, 1, X) for reasoning about circuits whose LUT
    contents are unknown.  The truth-table-extraction attack simulates the
    hybrid netlist with every missing gate producing X and measures where
    the unknowns reach observation points. *)

type v = Zero | One | X

val of_bool : bool -> v

val eval_gate : Gate_fn.t -> v array -> v
(** Pessimistic gate evaluation: X inputs propagate unless the known inputs
    force the output (e.g. a 0 on an AND). *)

val eval_truth : Truth.t -> v array -> v
(** LUT evaluation under partial inputs: the output is known iff all rows
    compatible with the known inputs agree. *)

val equal : v -> v -> bool
