module Netlist = Sttc_netlist.Netlist
module Library = Sttc_tech.Library

type report = {
  total_um2 : float;
  gates_um2 : float;
  luts_um2 : float;
  dffs_um2 : float;
}

let estimate lib nl =
  let gates = ref 0. and luts = ref 0. and dffs = ref 0. in
  Netlist.iter
    (fun _id node ->
      let a = Library.node_area_um2 lib node.Netlist.kind in
      match node.Netlist.kind with
      | Netlist.Gate _ -> gates := !gates +. a
      | Netlist.Lut _ -> luts := !luts +. a
      | Netlist.Dff -> dffs := !dffs +. a
      | Netlist.Pi | Netlist.Const _ -> ())
    nl;
  {
    total_um2 = !gates +. !luts +. !dffs;
    gates_um2 = !gates;
    luts_um2 = !luts;
    dffs_um2 = !dffs;
  }

let pp_report fmt r =
  Format.fprintf fmt "area: %.1f um2 (gates %.1f, LUTs %.1f, DFFs %.1f)"
    r.total_um2 r.gates_um2 r.luts_um2 r.dffs_um2
