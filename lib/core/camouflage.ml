module Netlist = Sttc_netlist.Netlist
module Gate_fn = Sttc_logic.Gate_fn
module Rng = Sttc_util.Rng

let candidate_functions = [ Gate_fn.Nand 2; Gate_fn.Nor 2; Gate_fn.Xnor 2 ]

let family =
  let tables = List.map Gate_fn.truth candidate_functions in
  Some (function 2 -> tables | _ -> [])

let eligible nl =
  List.filter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Gate fn -> List.mem fn candidate_functions
      | _ -> false)
    (Netlist.gates nl)

let random ~rng ~count nl =
  let pool = Array.of_list (eligible nl) in
  if Array.length pool = 0 then
    invalid_arg "Camouflage.random: no eligible cells";
  Hybrid.make nl (Array.to_list (Rng.sample rng count pool))
