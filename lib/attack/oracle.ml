module Netlist = Sttc_netlist.Netlist
module Simulator = Sttc_sim.Simulator

type t = {
  nl : Netlist.t;
  sim : Simulator.t;
  n_pis : int;
  n_dffs : int;
  mutable count : int;
}

let of_netlist nl =
  let sim = Simulator.create nl in
  {
    nl;
    sim;
    n_pis = List.length (Netlist.pis nl);
    n_dffs = List.length (Netlist.dffs nl);
    count = 0;
  }

let create hybrid = of_netlist (Sttc_core.Hybrid.programmed hybrid)

let input_names t =
  List.map (Netlist.name t.nl) (Netlist.pis t.nl)
  @ List.map (Netlist.name t.nl) (Netlist.dffs t.nl)

let query_lanes t inputs =
  if Array.length inputs <> t.n_pis + t.n_dffs then
    invalid_arg "Oracle.query_lanes: input arity";
  t.count <- t.count + 64;
  let pis = Array.sub inputs 0 t.n_pis in
  let state = Array.sub inputs t.n_pis t.n_dffs in
  Simulator.set_state t.sim state;
  let pos = Simulator.step t.sim pis in
  (* next-state = the state the step latched *)
  let next = Simulator.state t.sim in
  Array.append pos next

let query t inputs =
  let lanes =
    Array.map (fun b -> if b then -1L else 0L) inputs
  in
  let out = query_lanes t lanes in
  t.count <- t.count - 63; (* single pattern *)
  Array.map (fun v -> Int64.logand v 1L = 1L) out

let queries t = t.count

let query_sequence t pi_vectors =
  List.iter
    (fun v ->
      if Array.length v <> t.n_pis then
        invalid_arg "Oracle.query_sequence: PI arity")
    pi_vectors;
  Simulator.reset t.sim;
  List.map
    (fun v ->
      t.count <- t.count + 1;
      let lanes = Array.map (fun b -> if b then -1L else 0L) v in
      let outs = Simulator.step t.sim lanes in
      Array.map (fun o -> Int64.logand o 1L = 1L) outs)
    pi_vectors
