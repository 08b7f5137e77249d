(** Wall-clock measurement used for the Table II reproduction.  Wall-clock
    {e limits} are {!Budget}'s job. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the elapsed
    wall-clock seconds. *)

val format_min_sec : float -> string
(** Render seconds as the paper's Table II format ["MM:SS.d"], e.g.
    [format_min_sec 75.5 = "01:15.5"]. *)
