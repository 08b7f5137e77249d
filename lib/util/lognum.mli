(** Non-negative real numbers carried in the log10 domain.

    The security equations of the paper (Eqs. 1-3) produce values such as
    6.07E+219 test clocks, which overflow even IEEE double products when
    computed naively as running products.  [Lognum] stores [log10 x] and
    performs multiplication as addition and addition as log-sum-exp, so any
    quantity expressible as a finite power of ten is exact to double
    precision of its exponent. *)

type t

val of_float : float -> t
(** [of_float x] represents [x].  Raises [Invalid_argument] if [x < 0.] or
    [x] is NaN. *)

val of_int : int -> t

val log10 : t -> float
(** [log10 t] is the base-10 logarithm; [neg_infinity] for 0. *)

val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] when [b] is 0. *)

val pow : t -> int -> t
(** [pow a n] for [n >= 0].  Raises [Invalid_argument] on negative [n]. *)

val pow_float : t -> float -> t
(** [pow_float a x] is [a ** x] for [x >= 0.]. *)

val ( * ) : t -> t -> t

val max : t -> t -> t

val prod : t list -> t
(** The product; 1 for the empty list. *)

val sum : t list -> t
(** The sum; 0 for the empty list. *)

val to_string : t -> string
(** Scientific notation with three significant digits, e.g. ["6.07E+219"];
    values below 1e6 are printed in plain decimal. *)

val pp : Format.formatter -> t -> unit

val seconds_to_years : t -> t
(** Convert a count of seconds to years (365.25-day years). *)

val clocks_to_years : rate_hz:float -> t -> t
(** [clocks_to_years ~rate_hz n] is how many years applying [n] test clocks
    takes at [rate_hz] patterns per second (the paper assumes 1e9/s). *)
