type style =
  | Cmos
  | Stt_lut
  | Tvd
  | Sequential

type t = {
  cell_name : string;
  style : style;
  arity : int;
  delay_ps : float;
  switch_energy_fj : float;
  leakage_nw : float;
  area_um2 : float;
}

let by_arity make =
  let cells = Array.init Sttc_logic.Truth.max_arity (fun i -> make (i + 1)) in
  fun n -> if n >= 1 && n <= Array.length cells then cells.(n - 1) else make n

let activity_independent c =
  match c.style with Stt_lut -> true | Cmos | Tvd | Sequential -> false

let dynamic_power_uw c ~activity ~clock_ghz =
  if not (0. <= activity && activity <= 1.) then
    invalid_arg "Cell.dynamic_power_uw: activity out of [0,1]";
  if not (clock_ghz > 0.) then invalid_arg "Cell.dynamic_power_uw: clock";
  (* fJ * GHz = microwatt *)
  let effective = if activity_independent c then 1. else activity in
  effective *. c.switch_energy_fj *. clock_ghz
