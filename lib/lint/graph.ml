module Netlist = Sttc_netlist.Netlist

type t = {
  design : string;
  nodes : Netlist.node array;
  outputs : (string * int) array;
}

let of_netlist nl =
  {
    design = Netlist.design_name nl;
    nodes = Array.init (Netlist.node_count nl) (Netlist.node nl);
    outputs = Netlist.outputs nl;
  }

let valid_ref t id = id >= 0 && id < Array.length t.nodes
