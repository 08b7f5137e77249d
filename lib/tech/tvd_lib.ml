let lut =
  Cell.by_arity @@ fun n ->
  if n < 1 || n > Sttc_logic.Truth.max_arity then
    invalid_arg "Tvd_lib.lut: arity out of range";
  let fn = float_of_int n in
  {
    Cell.cell_name = Printf.sprintf "TVD_CAMO%d" n;
    style = Cell.Tvd;
    arity = n;
    (* a static gate with threshold-selected pull networks: close to the
       plain CMOS gate it replaces, far below the MTJ sense amplifier *)
    delay_ps = 45. +. (18. *. fn);
    switch_energy_fj = 1.9 *. (1.35 ** (fn -. 2.));
    (* the always-on low-Vt branches leak more than standard CMOS, but
       only linearly in fan-in: there is no 2^n memory array *)
    leakage_nw = 3.2 +. (0.9 *. fn);
    (* one camouflaged gate footprint, linear in fan-in *)
    area_um2 = 2.6 +. (0.85 *. fn);
  }

let candidate_functions n = Sttc_logic.Gate_fn.all_of_arity n
let program_energy_fj = 820.
let program_time_ns = 85.
