module Netlist = Sttc_netlist.Netlist

type kind =
  | Pi
  | Const of bool
  | Gate of Sttc_logic.Gate_fn.t
  | Lut of { arity : int; configured : bool }
  | Dff

type node = {
  name : string;
  kind : kind;
  fanins : int array;
}

type t = {
  design : string;
  nodes : node array;
  outputs : (string * int) array;
}

(* The [Gate fn] kind of every valid function, shared by every gate of
   that function, as in [Netlist.Builder]. *)
let gate_kinds =
  Array.of_list (List.map (fun fn -> Gate fn) Sttc_logic.Gate_fn.all)

let of_netlist nl =
  let kind_of = function
    | Netlist.Pi -> Pi
    | Netlist.Const v -> Const v
    | Netlist.Gate fn -> gate_kinds.(Sttc_logic.Gate_fn.index fn)
    | Netlist.Lut { arity; config } ->
        Lut { arity; configured = config <> None }
    | Netlist.Dff -> Dff
  in
  let nodes =
    Array.init (Netlist.node_count nl) (fun id ->
        let n = Netlist.node nl id in
        {
          name = n.Netlist.name;
          kind = kind_of n.Netlist.kind;
          fanins = n.Netlist.fanins;
        })
  in
  { design = Netlist.design_name nl; nodes; outputs = Netlist.outputs nl }

let is_combinational = function
  | Gate _ | Lut _ -> true
  | Pi | Const _ | Dff -> false

let valid_ref t id = id >= 0 && id < Array.length t.nodes
