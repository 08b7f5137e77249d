module Netlist = Sttc_netlist.Netlist
module Transform = Sttc_netlist.Transform
module Truth = Sttc_logic.Truth

type t = {
  original : Netlist.t;
  programmed : Netlist.t;
  foundry : Netlist.t;
  luts : Netlist.node_id list; (* ascending *)
}

let make ?(extra_inputs = []) ?(absorb = []) nl gates =
  let module Int_set = Set.Make (Int) in
  let set = Int_set.of_list gates in
  if Int_set.is_empty set then invalid_arg "Hybrid.make: empty selection";
  List.iter
    (fun (id, _) ->
      if not (Int_set.mem id set) then
        invalid_arg "Hybrid.make: absorb target not in the selection")
    absorb;
  (* Absorptions first: the gate becomes a configured complex-function
     LUT.  Then plain/extra replacements for the rest. *)
  let absorbed = Int_set.of_list (List.map fst absorb) in
  let with_extras =
    List.filter
      (fun (id, _) -> Int_set.mem id set && not (Int_set.mem id absorbed))
      extra_inputs
  in
  let plain =
    Int_set.elements
      (List.fold_left
         (fun acc (id, _) -> Int_set.remove id acc)
         (Int_set.diff set absorbed) with_extras)
  in
  let programmed =
    let nl =
      List.fold_left
        (fun nl (id, driver) -> Transform.absorb_driver nl id ~driver)
        nl absorb
    in
    let nl =
      if plain = [] then nl
      else Transform.replace_many ~keep_function:true nl plain
    in
    List.fold_left
      (fun nl (id, extras) ->
        Transform.replace_gate_with_lut ~extra_inputs:extras
          ~keep_function:true nl id)
      nl with_extras
  in
  let foundry = Transform.strip_configs programmed in
  { original = nl; programmed; foundry; luts = Int_set.elements set }

let original t = t.original
let foundry_view t = t.foundry
let programmed t = t.programmed
let lut_ids t = t.luts
let lut_count t = List.length t.luts

let bitstream t =
  List.map
    (fun id ->
      match Netlist.kind t.programmed id with
      | Netlist.Lut { config = Some c; _ } -> (id, c)
      | _ -> assert false)
    t.luts

let bitstream_bits t =
  List.fold_left
    (fun acc (_, c) -> acc + Truth.rows c)
    0 (bitstream t)

let program_with t configs = Transform.program_luts t.foundry configs

let verify ?(method_ = `Sat) t =
  match method_ with
  | `Sat -> Sttc_sim.Equiv.check_sat t.original t.programmed
  | `Random vectors ->
      Sttc_sim.Equiv.check_random ~vectors ~seed:0x5ec t.original t.programmed
