(** Gate functions of the standard-cell netlists (ISCAS'89 vocabulary) and
    the security metrics the paper derives from them.

    Section IV-A quantifies attack effort through two per-gate constants:

    - [alpha], the average number of test patterns needed to determine an
      independent missing gate, derived from the pairwise output
      "similarity" of candidate gates (paper: 2.45 / 4.2 / 7.4 for
      2-/3-/4-input gates);
    - [p], the number of plausible candidate gates per missing gate
      (paper: 2.5 for 2-input).

    This module provides both the paper's published constants (used to
    regenerate Fig. 3 faithfully) and the metric computed from first
    principles on the meaningful-gate sets. *)

type t =
  | Buf
  | Not
  | And of int
  | Nand of int
  | Or of int
  | Nor of int
  | Xor of int
  | Xnor of int
      (** Arity of the multi-input constructors must be >= 2. *)

val arity : t -> int

val validate : t -> unit
(** Raises [Invalid_argument] for arities outside [2, Truth.max_arity] on
    multi-input gates. *)

val eval : t -> bool array -> bool

val truth : t -> Truth.t
(** The function's table (shared, built once for every valid function). *)

val all : t list
(** Every valid function: [Buf], [Not], then AND, NAND, OR, NOR, XOR and
    XNOR at each arity 2..{!Truth.max_arity}, in {!index} order. *)

val index : t -> int
(** Position in {!all}, for tables indexed by gate function.  Raises
    [Invalid_argument] as {!validate} does. *)

val name : t -> string
(** ISCAS'89 [.bench] keyword, e.g. [And 3 -> "AND"]. *)

val to_string : t -> string
(** Human-readable with arity, e.g. ["NAND4"]. *)

val of_bench_name : string -> arity:int -> t option
(** Parse a [.bench] keyword (["AND"], ["NOT"], ["BUFF"], ...); [None] for
    unknown keywords (e.g. ["DFF"], which is not a combinational gate). *)

val all_of_arity : int -> t list
(** The "meaningful" gate set of a given arity, as counted by the paper:
    for arity 2 the six gates AND, NAND, OR, NOR, XOR, XNOR; for arity 1
    [Buf; Not]. *)

val computed_alpha : int -> float
(** The mean pairwise similarity over the meaningful set of the arity,
    plus 1: expected patterns to single a gate out.  The similarity of
    two gates is the rows on which their truth tables agree (paper
    Section IV-A: AND2/NOR2 -> 2, AND2/NAND2 -> 0). *)

val paper_alpha : int -> float
(** The constants published in the paper: 2.45, 4.2, 7.4 for arities
    2, 3, 4.  Arity 1 falls back to 1.5; arities above 4 extrapolate by the
    paper's growth ratio.  Used for the Fig. 3 reproduction. *)

val paper_p : int -> float
(** Candidate-gate count per missing gate: 2.5 for 2-input (paper);
    we use the meaningful-set sizes scaled by the same ratio for 3-/4-input
    (6, 12, 13 candidates -> 2.5, 5.0, 5.4). *)

val candidate_count : int -> int
(** Size of {!all_of_arity}. *)
