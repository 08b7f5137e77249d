(** SECDED Hamming code over one LUT's configuration bits.

    A LUT of arity [a] stores [2^a <= 64] truth-table rows; the
    provisioner can spend a few extra MTJ cells per LUT on an extended
    Hamming code (single-error-correcting, double-error-detecting) so
    that one flipped or unprogrammable cell per LUT is repaired at
    read-out instead of failing the part.

    The codeword layout is the classic one: data bits occupy the
    non-power-of-two positions of a 1-based codeword, parity bit [k]
    (at position [2^k]) covers the positions whose index has bit [k]
    set, and one extra overall-parity bit upgrades detection to double
    errors. *)

val encode : bool array -> bool array
(** [encode data] is the parity word for [data]: the Hamming parity
    cells plus the overall-parity bit, 4 cells for 4 data bits, 6 for
    16, 8 for 64. *)

type verdict =
  | Clean  (** data and parity are consistent, nothing to do *)
  | Corrected of bool array
      (** exactly one bit (data or parity) was wrong; the returned array
          is the repaired data *)
  | Uncorrectable
      (** two or more errors detected — the data cannot be trusted *)

val decode : data:bool array -> parity:bool array -> verdict
(** Check (and if possible repair) a stored data/parity pair.  Raises
    [Invalid_argument] when the parity length does not match
    [encode]'s for [data]. *)
