type lut_style =
  | Stt
  | Sram
  | Tvd

type t = { lut_style : lut_style }

let cmos90 = { lut_style = Stt }

let with_lut_style _t style = { lut_style = style }
let lut_style t = t.lut_style

let gate_cell _t fn = Cmos_lib.gate fn

let lut_cell t n =
  match t.lut_style with
  | Stt -> Stt_lib.lut n
  | Sram -> Sram_lib.lut n
  | Tvd -> Tvd_lib.lut n

let dff_cell _t = Cmos_lib.dff

let cell_of_kind t kind =
  match kind with
  | Sttc_netlist.Netlist.Pi | Sttc_netlist.Netlist.Const _ -> None
  | Sttc_netlist.Netlist.Gate fn -> Some (gate_cell t fn)
  | Sttc_netlist.Netlist.Lut { arity; _ } -> Some (lut_cell t arity)
  | Sttc_netlist.Netlist.Dff -> Some (dff_cell t)

let node_delay_ps t kind =
  match cell_of_kind t kind with
  | None -> 0.
  | Some c -> c.Cell.delay_ps

let node_area_um2 t kind =
  match cell_of_kind t kind with
  | None -> 0.
  | Some c -> c.Cell.area_um2
