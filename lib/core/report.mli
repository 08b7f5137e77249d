(** Paper-style rendering of experiment results: Table I, Table II and the
    Fig. 3 series. *)

type benchmark_row = {
  circuit : string;
  size : int;  (** gate count excluding flip-flops *)
  results : (string * Flow.result) list;
      (** keyed by algorithm name, in table order *)
  failures : (string * string) list;
      (** algorithms that produced no result (crash, timeout), with the
          reason — their table cells render as ["-"] and each failure is
          listed in a footnote under the table *)
}

val table1 : benchmark_row list -> string
(** Performance degradation %, power overhead %, area overhead %, and
    number of STTs per circuit and algorithm, with the paper's Average
    row. *)

val table2 : benchmark_row list -> string
(** Selection CPU time (MM:SS.d) per circuit and algorithm. *)

val fig3 : benchmark_row list -> string
(** Required test clocks (Eq. 1 for independent, Eq. 2 for dependent,
    max of Eqs. 2 and 3 for parametric) per circuit, with years-to-break
    at 1e9 patterns/s. *)

val fig1 : unit -> string
(** The STT-LUT vs CMOS comparison: published reference values next to
    this repo's analytical model predictions. *)
