(** ISCAS'89 [.bench] format reader and writer.

    The grammar accepted:
    {v
    # comment
    INPUT(a)
    OUTPUT(z)
    n1 = NAND(a, b)
    s0 = DFF(n1)
    z = NOT(s0)
    v}

    Unconfigured LUT slots (missing gates) are written as [LUT(...)] and
    configured ones as [LUT "0110"(...)]; both are read back, so hybrid
    netlists round-trip.  Genuine ISCAS'89 files parse unchanged. *)

exception Parse_error of int * string
(** Line number and message. *)

val parse_string : ?design_name:string -> string -> Netlist.t
(** Raises [Parse_error] on every input {!Netlist.Builder} would refuse,
    at the offending line: an undefined or redefined signal, a duplicate
    declaration, a combinational cycle, an impossible fan-in count.  An
    input with no [OUTPUT] line is refused at its last line, with the
    message [no OUTPUT declaration]. *)

val parse_file : string -> Netlist.t
(** Design name defaults to the file's base name. *)

val to_string : Netlist.t -> string
val write_file : string -> Netlist.t -> unit
