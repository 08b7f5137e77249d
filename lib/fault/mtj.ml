module Rng = Sttc_util.Rng

type spec = { write_error_rate : float; stuck_cell_rate : float }

(* Each escalation step divides the transient error rate by this factor
   and multiplies the write energy by it (a higher write current). *)
let gain = 10.

let spec ?(write_error_rate = 1e-3) ?(stuck_cell_rate = 0.) () =
  let rate name r =
    if not (r >= 0. && r <= 1.) then
      invalid_arg (Printf.sprintf "Mtj.spec: %s %g outside [0,1]" name r)
  in
  rate "write_error_rate" write_error_rate;
  rate "stuck_cell_rate" stuck_cell_rate;
  { write_error_rate; stuck_cell_rate }

type cell_state = {
  stuck : bool;
  mutable value : bool;
  rng : Rng.t;  (** per-cell stream for transient write outcomes *)
}

type channel = {
  spec : spec;
  seed : int;
  cells : (string * int, cell_state) Hashtbl.t;
  mutable attempts : int;
  mutable energy_units : float;
  mutable verify_reads : int;
}

let channel ?(seed = 0) spec =
  { spec; seed; cells = Hashtbl.create 256; attempts = 0; energy_units = 0.;
    verify_reads = 0 }

(* The cell's entire fate (as-fabricated value, stuckness, and the stream
   of transient write outcomes) depends only on the channel seed and the
   cell address, never on how many other cells were touched first. *)
let cell_state ch ~lut ~cell =
  let key = (lut, cell) in
  match Hashtbl.find_opt ch.cells key with
  | Some s -> s
  | None ->
      let rng = Rng.make (ch.seed lxor Hashtbl.hash key lxor 0x5177c) in
      let value = Rng.bool rng in
      let stuck = Rng.float rng 1.0 < ch.spec.stuck_cell_rate in
      let s = { stuck; value; rng } in
      Hashtbl.add ch.cells key s;
      s

let write ch ~lut ~cell ?(escalation = 0) target =
  let s = cell_state ch ~lut ~cell in
  ch.attempts <- ch.attempts + 1;
  ch.verify_reads <- ch.verify_reads + 1;
  ch.energy_units <-
    ch.energy_units +. (gain ** float_of_int escalation);
  if not s.stuck then begin
    let rate =
      ch.spec.write_error_rate
      /. (gain ** float_of_int escalation)
    in
    let fails = rate > 0. && Rng.float s.rng 1.0 < rate in
    if not fails then s.value <- target
  end;
  s.value

let read ch ~lut ~cell =
  ch.verify_reads <- ch.verify_reads + 1;
  (cell_state ch ~lut ~cell).value

let is_stuck ch ~lut ~cell = (cell_state ch ~lut ~cell).stuck
let attempts ch = ch.attempts
let energy_units ch = ch.energy_units
let verify_reads ch = ch.verify_reads
