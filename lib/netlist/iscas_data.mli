(** Genuine ISCAS benchmark netlists small enough to embed verbatim.

    The twelve evaluation circuits are structural twins (see
    [Iscas_profiles]); these two real netlists exist so that the
    [.bench] parser, the flow and the attacks are exercised against
    authentic inputs as well:

    - [s27]: the smallest ISCAS'89 sequential benchmark
      (4 PI, 1 PO, 3 DFF, 10 gates);
    - [c17]: the smallest ISCAS'85 combinational benchmark
      (5 PI, 2 PO, 6 NAND gates). *)

val all : (string * (unit -> Netlist.t)) list
