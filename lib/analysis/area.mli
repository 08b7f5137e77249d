(** Cell-area accounting and the Table I area-overhead metric. *)

type report = {
  total_um2 : float;
  gates_um2 : float;
  luts_um2 : float;
  dffs_um2 : float;
}

val estimate : Sttc_tech.Library.t -> Sttc_netlist.Netlist.t -> report

val pp_report : Format.formatter -> report -> unit
