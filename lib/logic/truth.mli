(** Bit-packed truth tables for Boolean functions of up to 6 variables.

    Row [i] of the table is bit [i] of a 64-bit word, where input variable
    [k] contributes bit [k] of the row index (input 0 is the least
    significant).  This is the representation stored inside STT-LUT
    configurations and used by the similarity metric of Section IV-A. *)

type t

val max_arity : int
(** 6: a 64-bit word holds [2^6] rows. *)

val arity : t -> int
val rows : t -> int
(** [2^arity]. *)

val create : arity:int -> (bool array -> bool) -> t
(** Tabulate a Boolean function.  Raises [Invalid_argument] if the arity is
    outside [0, max_arity]. *)

val of_bits : arity:int -> int64 -> t
(** Interpret the low [2^arity] bits as the table; higher bits must be 0. *)

val bits : t -> int64

val const_false : arity:int -> t
val const_true : arity:int -> t
val row : t -> int -> bool
(** [row t i] is the output for input row [i]. *)

val eval : t -> bool array -> bool
(** [eval t inputs] looks up the row addressed by [inputs]; the array length
    must equal the arity. *)

val equal : t -> t -> bool

val popcount64 : int64 -> int
(** Set bits of a word, one step per set bit. *)

val agreement : t -> t -> int
(** [agreement a b] is the number of input rows on which [a] and [b]
    produce the same output — the paper's "similarity" of two gates
    (e.g. AND2 vs NOR2 agree on 2 rows; AND2 vs NAND2 on 0).
    Raises [Invalid_argument] when arities differ. *)

val depends_on : t -> int -> bool
(** Whether the output actually depends on input [k]. *)

val to_string : t -> string
(** Rows as a 0/1 string, row 0 first, e.g. AND2 = ["0001"]. *)

val of_string : string -> t
(** Inverse of {!to_string}.  Raises [Invalid_argument] on bad input. *)

val random : Sttc_util.Rng.t -> arity:int -> t
