(** CNF formulas and Tseitin encoding of gate netlists.

    Variables are positive integers; a literal is a non-zero integer whose
    sign is the polarity (DIMACS convention).  The SAT attack encodes the
    hybrid circuit as a miter over these formulas. *)

type lit = int
type clause = lit array

type t
(** A mutable formula under construction. *)

val create : unit -> t
val fresh_var : t -> int
(** Allocate a new variable (starting from 1). *)

val nvars : t -> int
val nclauses : t -> int

val add_clause : t -> lit list -> unit
(** Raises [Invalid_argument] if a literal references variable 0 or an
    unallocated variable. *)

val clause : t -> int -> clause
(** [clause t i] is the [i]th clause added (0-based).  The returned array
    is the stored clause: callers must not mutate it.  This is the cursor
    interface [Sat.Solver.sync] uses to consume a growing formula
    incrementally.  Raises [Invalid_argument] when out of range. *)

(* --- Tseitin gate encodings: the output literal is constrained to equal
   the gate function of the input literals. --- *)

val encode_and : t -> lit -> lit list -> unit
val encode_or : t -> lit -> lit list -> unit
val encode_xor : t -> lit -> lit -> lit -> unit
(** out = a XOR b. *)

val encode_gate : t -> lit -> Gate_fn.t -> lit list -> unit
(** Encode any supported gate function. *)

val encode_truth_lut : t -> lit -> key:lit array -> inputs:lit array -> unit
(** Encode a LUT whose content is symbolic: [key] holds one literal per
    truth-table row ([2^arity] literals, row 0 first); the output equals
    the key bit addressed by the inputs.  This is how missing STT gates
    enter the SAT-attack formula. *)
