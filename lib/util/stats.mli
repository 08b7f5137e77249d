(** Small descriptive-statistics helpers for experiment reporting. *)

val mean : float list -> float
(** Arithmetic mean; 0. for the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [0,100], nearest-rank method.
    Raises [Invalid_argument] on an empty list or [p] out of range. *)

val relative_overhead : base:float -> modified:float -> float
(** [(modified - base) / base * 100.], the percentage metric used across
    the paper's Table I.  Returns 0. when [base = 0.]. *)
