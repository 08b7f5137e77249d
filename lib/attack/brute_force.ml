module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Lognum = Sttc_util.Lognum
module Rng = Sttc_util.Rng
module Hybrid = Sttc_core.Hybrid

type outcome =
  | Broken of {
      bitstream : (Netlist.node_id * Truth.t) list;
      candidates_tested : Lognum.t;
      seconds : float;
    }
  | Infeasible of {
      search_space : Lognum.t;
      projected_years : Lognum.t;
      tested_rate_per_s : float;
    }

let search_space hybrid =
  Lognum.pow (Lognum.of_int 2) (Hybrid.bitstream_bits hybrid)

(* Decompose a global candidate index into per-LUT truth tables. *)
let bitstream_of_index luts arities index =
  let rec go luts arities index acc =
    match (luts, arities) with
    | [], [] -> List.rev acc
    | id :: luts, a :: arities ->
        let rows = 1 lsl a in
        let mask = Int64.sub (Int64.shift_left 1L rows) 1L in
        let bits = Int64.logand index mask in
        go luts arities
          (Int64.shift_right_logical index rows)
          ((id, Truth.of_bits ~arity:a bits) :: acc)
    | _ -> assert false
  in
  go luts arities index []

let candidate_matches ~vectors ~rng oracle sim_template hybrid bitstream =
  ignore sim_template;
  let candidate = Hybrid.program_with hybrid bitstream in
  let sim = Sttc_sim.Simulator.create candidate in
  let nl = candidate in
  let pis = Array.of_list (Netlist.pis nl) in
  let dffs = Array.of_list (Netlist.dffs nl) in
  let batches = max 1 (vectors / 64) in
  let ok = ref true in
  let b = ref 0 in
  while !ok && !b < batches do
    incr b;
    let pi_lanes = Array.map (fun _ -> Rng.int64 rng) pis in
    let st_lanes = Array.map (fun _ -> Rng.int64 rng) dffs in
    Sttc_sim.Simulator.set_state sim st_lanes;
    let pos = Sttc_sim.Simulator.eval_comb sim pi_lanes in
    let values = Sttc_sim.Simulator.node_values sim in
    let next =
      Array.of_list
        (List.map (fun ff -> values.((Netlist.fanins nl ff).(0))) (Netlist.dffs nl))
    in
    let ours = Array.append pos next in
    let theirs = Oracle.query_lanes oracle (Array.append pi_lanes st_lanes) in
    if ours <> theirs then ok := false
  done;
  !ok

let run ?(max_bits = 18) ?(check_vectors = 512) ?(seed = 0xb0f) hybrid =
  let t0 = Unix.gettimeofday () in
  let bits = Hybrid.bitstream_bits hybrid in
  let space = search_space hybrid in
  let oracle = Oracle.create hybrid in
  let rng = Rng.make seed in
  let luts = Hybrid.lut_ids hybrid in
  let foundry = Hybrid.foundry_view hybrid in
  let arities =
    List.map
      (fun id ->
        match Netlist.kind foundry id with
        | Netlist.Lut { arity; _ } -> arity
        | _ -> assert false)
      luts
  in
  if bits > max_bits then begin
    (* measure the candidate-testing rate on a small prefix *)
    let sample = 64 in
    let t1 = Unix.gettimeofday () in
    for i = 0 to sample - 1 do
      ignore
        (candidate_matches ~vectors:64 ~rng oracle () hybrid
           (bitstream_of_index luts arities (Int64.of_int i)))
    done;
    let dt = Unix.gettimeofday () -. t1 in
    let rate = if dt <= 0. then 1e6 else float_of_int sample /. dt in
    Infeasible
      {
        search_space = space;
        projected_years =
          Lognum.seconds_to_years (Lognum.div space (Lognum.of_float rate));
        tested_rate_per_s = rate;
      }
  end
  else begin
    let total = Int64.shift_left 1L bits in
    let rec search i =
      Sttc_util.Budget.check ();
      if i >= total then None
      else
        let bitstream = bitstream_of_index luts arities i in
        if
          candidate_matches ~vectors:check_vectors ~rng oracle () hybrid
            bitstream
          && Sat_attack.verify_break hybrid bitstream
        then Some (bitstream, i)
        else search (Int64.add i 1L)
    in
    match search 0L with
    | Some (bitstream, i) ->
        Broken
          {
            bitstream;
            candidates_tested = Lognum.of_float (Int64.to_float (Int64.add i 1L));
            seconds = Unix.gettimeofday () -. t0;
          }
    | None ->
        (* cannot happen: the genuine bitstream is in the space *)
        assert false
  end
