(** Structural rule pack: netlist well-formedness.

    These rules run on any design graph — typically {!Graph.of_netlist}
    of a base netlist, a foundry view or a programmed hybrid — and catch
    the malformations that would make every downstream security or PPA
    number meaningless.

    {t
    | ID     | alias          | severity | finding |
    |--------|----------------|----------|---------|
    | STR001 | comb-loop      | error    | combinational cycle (no flip-flop on the loop) |
    | STR002 | undriven-net   | error    | fanin reference to no driver (undefined / unwired) |
    | STR003 | multi-driver   | error    | one signal name driven by several nodes |
    | STR004 | dangling-gate  | warning  | combinational node reaching no output or flip-flop |
    | STR005 | arity-mismatch | error    | fan-in count vs. gate function / tech-library cell |
    | STR006 | duplicate-name | error    | duplicate primary-output name |
    | STR007 | no-output      | error    | design has no primary outputs |
    } *)

type rule = {
  id : string;
  alias : string;
  severity : Diagnostic.severity;
  doc : string;
}

val rules : rule list
(** The catalog above, in ID order. *)

val run : Graph.t -> Diagnostic.t list
(** Run the pack on a raw graph, with the cell models of
    {!Sttc_tech.Library.cmos90} for STR005. *)

val check :
  ?library:Sttc_tech.Library.t -> Sttc_netlist.Netlist.t -> Diagnostic.t list
(** The pack on {!Graph.of_netlist}; [library] (default
    {!Sttc_tech.Library.cmos90}) supplies the cell models for STR005. *)
