(** Structural twins of the ISCAS'89 benchmarks used in the paper.

    Gate counts follow the paper's Table I "size" column (which excludes
    flip-flops); flip-flop and I/O counts follow the standard published
    ISCAS'89 statistics.  The circuits themselves are generated
    deterministically by {!Generator}; see DESIGN.md §2 for the
    substitution rationale. *)

type info = {
  name : string;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;  (** paper Table I "size" *)
  levels : int;  (** representative combinational depth *)
}

val all : info list
(** The twelve benchmarks of Table I, smallest first:
    s641, s820, s832, s953, s1196, s1238, s1488, s5378a, s9234a, s13207,
    s15850a, s38584. *)

val find : string -> info option
val find_exn : string -> info

val build : info -> Netlist.t
(** Instantiate the structural twin at a seed derived from the benchmark
    name, so every run of the experiment suite sees the same circuits. *)

val build_by_name : ?seed:int -> string -> Netlist.t
(** {!build} by name, or at another [seed].  Raises [Invalid_argument]
    for unknown names. *)

val names : string list
