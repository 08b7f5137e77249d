(** Elapsed-time measurement, used for the Table II reproduction and the
    attacks' reported seconds.  Wall-clock {e limits} are {!Budget}'s
    job. *)

val now_s : unit -> float
(** The monotonic clock every elapsed time is measured on, in seconds
    from an arbitrary origin: the clock {!Budget} keeps its deadlines on
    ({!Pool.now_s}).  It never steps backwards, so the difference of two
    readings is never negative. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed seconds on {!now_s}. *)

val format_min_sec : float -> string
(** Render seconds as the paper's Table II format ["MM:SS.d"], e.g.
    [format_min_sec 75.5 = "01:15.5"]. *)
