module Netlist = Sttc_netlist.Netlist
module Simulator = Sttc_sim.Simulator
module Library = Sttc_tech.Library
module Cell = Sttc_tech.Cell
module Rng = Sttc_util.Rng

type result = {
  traces : int;
  cycles : int;
  mean_energy_fj : float;
  dom_fj : float;
  dom_relative : float;
}

let measure ?(cycles = 32) ?(batches = 16) lib nl ~target =
  if cycles < 1 || batches < 1 then invalid_arg "Dpa.measure: sizes";
  let target_id =
    match Netlist.find nl target with
    | Some id -> id
    | None -> invalid_arg ("Dpa.measure: unknown target signal " ^ target)
  in
  let sim = Simulator.create nl in
  let rng = Rng.make 0xd9a in
  let pis = Array.of_list (Netlist.pis nl) in
  let n = Netlist.node_count nl in
  (* per-node energy coefficients *)
  let toggle_energy = Array.make n 0. in
  let static_energy = Array.make n 0. in
  Netlist.iter
    (fun id node ->
      match Library.cell_of_kind lib node.Netlist.kind with
      | None -> ()
      | Some cell ->
          if Cell.activity_independent cell then
            static_energy.(id) <- cell.Cell.switch_energy_fj
          else toggle_energy.(id) <- cell.Cell.switch_energy_fj)
    nl;
  let static_per_cycle = Array.fold_left ( +. ) 0. static_energy in
  (* accumulators per cycle: sums and counts for target=0 / target=1 *)
  let sum0 = Array.make cycles 0. and cnt0 = Array.make cycles 0 in
  let sum1 = Array.make cycles 0. and cnt1 = Array.make cycles 0 in
  let total = ref 0. and total_n = ref 0 in
  for _batch = 1 to batches do
    Simulator.reset sim;
    let prev = Array.make n 0L in
    for cycle = 0 to cycles - 1 do
      let pi_lanes = Array.map (fun _ -> Rng.int64 rng) pis in
      ignore (Simulator.step sim pi_lanes);
      let values = Simulator.node_values sim in
      (* per-lane energy of this cycle *)
      let lane_energy = Array.make 64 static_per_cycle in
      for id = 0 to n - 1 do
        let e = toggle_energy.(id) in
        if e > 0. then begin
          let diff = Int64.logxor values.(id) prev.(id) in
          if diff <> 0L then
            for lane = 0 to 63 do
              if Int64.logand (Int64.shift_right_logical diff lane) 1L = 1L
              then lane_energy.(lane) <- lane_energy.(lane) +. e
            done
        end
      done;
      Array.blit values 0 prev 0 n;
      let target_lanes = values.(target_id) in
      for lane = 0 to 63 do
        let e = lane_energy.(lane) in
        total := !total +. e;
        incr total_n;
        if Int64.logand (Int64.shift_right_logical target_lanes lane) 1L = 1L
        then begin
          sum1.(cycle) <- sum1.(cycle) +. e;
          cnt1.(cycle) <- cnt1.(cycle) + 1
        end
        else begin
          sum0.(cycle) <- sum0.(cycle) +. e;
          cnt0.(cycle) <- cnt0.(cycle) + 1
        end
      done
    done
  done;
  let dom = ref 0. in
  for cycle = 0 to cycles - 1 do
    if cnt0.(cycle) > 0 && cnt1.(cycle) > 0 then begin
      let m0 = sum0.(cycle) /. float_of_int cnt0.(cycle) in
      let m1 = sum1.(cycle) /. float_of_int cnt1.(cycle) in
      dom := Float.max !dom (Float.abs (m1 -. m0))
    end
  done;
  let mean = if !total_n = 0 then 0. else !total /. float_of_int !total_n in
  {
    traces = 64 * batches;
    cycles;
    mean_energy_fj = mean;
    dom_fj = !dom;
    dom_relative = (if mean = 0. then 0. else !dom /. mean);
  }

let leakage_reduction ?cycles ?batches lib ~original ~hybrid ~target =
  let r_orig = measure ?cycles ?batches lib original ~target in
  let r_hyb = measure ?cycles ?batches lib hybrid ~target in
  if r_hyb.dom_relative = 0. then infinity
  else r_orig.dom_relative /. r_hyb.dom_relative
