(** Structural statistics of a netlist — the fidelity currency of the
    synthetic ISCAS'89 twins (DESIGN.md §2): the selection algorithms and
    the PPA analyses only ever read the quantities reported here, so two
    circuits that agree on them behave alike under the flow. *)

type t = {
  nodes : int;
  pis : int;
  pos : int;
  dffs : int;
  gates : int;  (** combinational gates (paper's "size", LUTs included) *)
  luts : int;
  depth : int;  (** combinational levels *)
  gate_mix : (string * int) list;  (** count per gate class, descending *)
  fanin_histogram : (int * int) list;  (** (arity, gates) ascending *)
  fanout_histogram : (int * int) list;
      (** (fanout bucket, signals); buckets 0,1,2,3,4+ encoded as 0..4 *)
  avg_fanin : float;
  avg_fanout : float;
}

val compute : Netlist.t -> t
val render : t -> string
(** Multi-line human-readable block. *)
