(** Structural rule pack: dead logic, and the catalog rows of the
    well-formedness faults the netlist reader refuses.

    {!Sttc_netlist.Netlist.Builder}, {!Sttc_netlist.Netlist.with_kinds}
    and the [.bench] reader ({!Sttc_netlist.Bench_io}, which reports
    their refusals as a [Parse_error] at the offending line) are the one
    owner of netlist well-formedness: no [Netlist.t] holds a
    combinational cycle, an undriven reference, a name driven twice, a
    fan-in count its gate function does not take, a duplicate output
    name or an empty output list.  So only STR004 is checked here; the
    other six rows keep their IDs, aliases and severities so that
    [--rules], [--suppress] and baselines naming them still resolve, and
    never fire.

    {t
    | ID     | alias          | severity | finding |
    |--------|----------------|----------|---------|
    | STR001 | comb-loop      | error    | combinational cycle (refused when the netlist is read) |
    | STR002 | undriven-net   | error    | fanin reference to no driver (refused when the netlist is read) |
    | STR003 | multi-driver   | error    | one signal name driven by several nodes (refused when the netlist is read) |
    | STR004 | dangling-gate  | warning  | combinational node reaching no output or flip-flop |
    | STR005 | arity-mismatch | error    | fan-in count vs. gate function (refused when the netlist is read) |
    | STR006 | duplicate-name | error    | duplicate primary-output name (refused when the netlist is read) |
    | STR007 | no-output      | error    | design has no primary outputs (refused when the netlist is read) |
    } *)

type rule = {
  id : string;
  alias : string;
  severity : Diagnostic.severity;
  doc : string;
}

val rules : rule list
(** The catalog above, in ID order. *)

val check :
  ?library:Sttc_tech.Library.t -> Sttc_netlist.Netlist.t -> Diagnostic.t list
(** STR004's findings on the netlist, in node-id order.  [library] is
    read by nothing: it stays only because the performance ledger's
    replay ([bench/ledger/replay.ml]) passes it. *)
