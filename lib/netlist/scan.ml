module Gate_fn = Sttc_logic.Gate_fn

type chain = {
  netlist : Netlist.t;
  scan_en : Netlist.node_id;
  scan_in : Netlist.node_id;
  order : Netlist.node_id list;
}

let reserved = [ "scan_en"; "scan_in"; "scan_out" ]

let insert nl =
  let ffs = Netlist.dffs nl in
  if ffs = [] then invalid_arg "Scan.insert: no flip-flops";
  List.iter
    (fun name ->
      if Netlist.find nl name <> None then
        invalid_arg ("Scan.insert: name " ^ name ^ " already in use"))
    reserved;
  let b = Netlist.Builder.create ~design_name:(Netlist.design_name nl) () in
  let n = Netlist.node_count nl in
  let map = Array.make n (-1) in
  (* sources first *)
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with
      | Netlist.Pi -> map.(id) <- Netlist.Builder.add_pi b node.Netlist.name
      | Netlist.Const v ->
          map.(id) <- Netlist.Builder.add_const b node.Netlist.name v
      | Netlist.Dff ->
          map.(id) <- Netlist.Builder.add_dff_deferred b node.Netlist.name
      | _ -> ())
    nl;
  let scan_en = Netlist.Builder.add_pi b "scan_en" in
  let scan_in = Netlist.Builder.add_pi b "scan_in" in
  (* combinational logic in topological order *)
  Array.iter
    (fun id ->
      let node = Netlist.node nl id in
      match node.Netlist.kind with
      | Netlist.Gate fn ->
          map.(id) <-
            Netlist.Builder.add_gate b node.Netlist.name fn
              (Array.map (fun s -> map.(s)) node.Netlist.fanins)
      | Netlist.Lut { config; _ } ->
          map.(id) <-
            Netlist.Builder.add_lut b node.Netlist.name ?config
              (Array.map (fun s -> map.(s)) node.Netlist.fanins)
      | _ -> ())
    (Netlist.topo_order nl);
  (* scan muxes: shared NOT(scan_en), per-FF (d AND nse) OR (prev AND se) *)
  let nse = Netlist.Builder.add_gate b "scan_nen" Gate_fn.Not [| scan_en |] in
  let prev = ref scan_in in
  let order = ref [] in
  List.iter
    (fun ff ->
      let name = Netlist.name nl ff in
      let d = map.((Netlist.fanins nl ff).(0)) in
      let m1 =
        Netlist.Builder.add_gate b (name ^ "_sd") (Gate_fn.And 2) [| d; nse |]
      in
      let m2 =
        Netlist.Builder.add_gate b (name ^ "_ss") (Gate_fn.And 2)
          [| !prev; scan_en |]
      in
      let mux =
        Netlist.Builder.add_gate b (name ^ "_sm") (Gate_fn.Or 2) [| m1; m2 |]
      in
      Netlist.Builder.set_dff_input b map.(ff) mux;
      order := map.(ff) :: !order;
      prev := map.(ff))
    ffs;
  Array.iter
    (fun (name, id) -> Netlist.Builder.add_output b name map.(id))
    (Netlist.outputs nl);
  Netlist.Builder.add_output b "scan_out" !prev;
  let netlist = Netlist.Builder.finalize b in
  { netlist; scan_en; scan_in; order = List.rev !order }

let shift_cycles chain = List.length chain.order

let shift_sequence chain state =
  let m = List.length chain.order in
  if Array.length state <> m then
    invalid_arg "Scan.shift_sequence: state length mismatch";
  let pis = Array.of_list (Netlist.pis chain.netlist) in
  let n_pi = Array.length pis in
  let en_pos = ref (-1) and in_pos = ref (-1) in
  Array.iteri
    (fun i pi ->
      if pi = chain.scan_en then en_pos := i
      else if pi = chain.scan_in then in_pos := i)
    pis;
  assert (!en_pos >= 0 && !in_pos >= 0);
  (* the bit fed first ends at the chain tail, so feed tail-first *)
  List.init m (fun cycle ->
      let v = Array.make n_pi false in
      v.(!en_pos) <- true;
      v.(!in_pos) <- state.(m - 1 - cycle);
      v)

let lock nl =
  match Netlist.find nl "scan_en" with
  | None -> invalid_arg "Scan.lock: no scan_en input"
  | Some se ->
      Netlist.with_kinds nl (fun id kind fanins ->
          if id = se then (Netlist.Const false, [||]) else (kind, fanins))
