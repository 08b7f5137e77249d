module Netlist = Sttc_netlist.Netlist

type t = {
  design : string;
  nodes : Netlist.node array;
  outputs : (string * int) array;
}

(* a constant, so the compiler emits it statically: an array built from
   it, unlike one from [Array.init]'s young first node, forces no minor
   collection *)
let placeholder = { Netlist.name = ""; kind = Netlist.Pi; fanins = [||] }

let of_netlist nl =
  let nodes = Array.make (Netlist.node_count nl) placeholder in
  for id = 0 to Array.length nodes - 1 do
    nodes.(id) <- Netlist.node nl id
  done;
  { design = Netlist.design_name nl; nodes; outputs = Netlist.outputs nl }

let valid_ref t id = id >= 0 && id < Array.length t.nodes
