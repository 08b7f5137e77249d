(** I/O path sampling — the procedure at the end of Section IV-A.

    The paper's selection algorithms operate on "the longest I/O paths":
    paths from a primary input to a primary output that cross at least two
    flip-flops.  For scalability the paper samples 2 % of the circuit's
    components, DFS-walks each sample backward to a primary input and
    forward to a primary output, deduplicates the collected paths, drops
    any path containing the critical (timing) path, and sorts the rest by
    depth (number of flip-flops crossed).  Here the walks are random:
    eight attempts per sample, through flip-flops, failing on a revisit,
    keeping the path with the most flip-flops.

    A path is stored as the ordered node list from PI to PO; its
    {e timing paths} are the combinational segments between consecutive
    sequential endpoints (PI-to-FF, FF-to-FF, FF-to-PO). *)

type io_path = {
  nodes : Sttc_netlist.Netlist.node_id list;  (** PI first, PO driver last *)
  ff_count : int;  (** the paper's path depth [D] *)
}

type segment = {
  gates : Sttc_netlist.Netlist.node_id list;
      (** combinational nodes of the segment, in path order *)
  launches_at_ff : bool;
  captures_at_ff : bool;
}

val sample :
  rng:Sttc_util.Rng.t ->
  ?fraction:float ->
  ?min_ffs:int ->
  ?exclude_critical:Sttc_netlist.Netlist.node_id list ->
  Sttc_netlist.Netlist.t ->
  io_path list
(** [sample ~rng nl] follows the paper: samples [fraction] (default 0.02,
    but at least 8) of the combinational components, finds an I/O path
    through each, keeps paths with at least [min_ffs] (default 2)
    flip-flops — relaxing the requirement stepwise when the circuit has no
    such path — removes duplicates and any path containing all of
    [exclude_critical], and returns the rest sorted by descending
    [ff_count] (longest first). *)

val segments : Sttc_netlist.Netlist.t -> io_path -> segment list
(** Cut an I/O path at its flip-flops. *)

val gates_on_path : Sttc_netlist.Netlist.t -> io_path -> Sttc_netlist.Netlist.node_id list
(** The replaceable (combinational gate) nodes of a path. *)
