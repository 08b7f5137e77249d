let lut_config_of_gate fn ~total_arity =
  (* Truth table of [fn] over [total_arity] inputs where inputs beyond the
     gate's own arity are connected but ignored. *)
  let garity = Sttc_logic.Gate_fn.arity fn in
  Sttc_logic.Truth.create ~arity:total_arity (fun inputs ->
      Sttc_logic.Gate_fn.eval fn (Array.sub inputs 0 garity))

let replace_gate_with_lut ?(extra_inputs = []) ?(keep_function = true) t id =
  (match Netlist.kind t id with
  | Netlist.Gate _ -> ()
  | _ -> invalid_arg "Transform.replace_gate_with_lut: not a gate");
  List.iter
    (fun e ->
      if e < 0 || e >= Netlist.node_count t then
        invalid_arg "Transform.replace_gate_with_lut: bad extra input";
      (* an extra input closes a combinational loop only when it is itself
         a combinational signal fed (transitively) by the LUT; flip-flop
         outputs, PIs and constants are always safe sources *)
      if
        Netlist.is_combinational (Netlist.kind t e)
        && Query.reaches_combinationally t id e
      then
        invalid_arg
          "Transform.replace_gate_with_lut: extra input would create a cycle")
    extra_inputs;
  Netlist.with_kinds t (fun nid kind fanins ->
      if nid <> id then (kind, fanins)
      else
        match kind with
        | Netlist.Gate fn ->
            let fanins' = Array.append fanins (Array.of_list extra_inputs) in
            let arity = Array.length fanins' in
            if arity > Sttc_logic.Truth.max_arity then
              invalid_arg "Transform.replace_gate_with_lut: arity too large";
            let config =
              if keep_function then
                Some (lut_config_of_gate fn ~total_arity:arity)
              else None
            in
            (Netlist.Lut { arity; config }, fanins')
        | _ -> assert false)

let replace_many ?(keep_function = true) t ids =
  let module Int_set = Set.Make (Int) in
  let set = Int_set.of_list ids in
  Int_set.iter
    (fun id ->
      match Netlist.kind t id with
      | Netlist.Gate _ -> ()
      | _ -> invalid_arg "Transform.replace_many: not a gate")
    set;
  Netlist.with_kinds t (fun nid kind fanins ->
      if not (Int_set.mem nid set) then (kind, fanins)
      else
        match kind with
        | Netlist.Gate fn ->
            let arity = Array.length fanins in
            let config =
              if keep_function then
                Some (lut_config_of_gate fn ~total_arity:arity)
              else None
            in
            (Netlist.Lut { arity; config }, fanins)
        | _ -> assert false)

let strip_configs t =
  Netlist.with_kinds t (fun _ kind fanins ->
      match kind with
      | Netlist.Lut { arity; _ } ->
          (Netlist.Lut { arity; config = None }, fanins)
      | _ -> (kind, fanins))

let program_luts t configs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (id, c) ->
      (match Netlist.kind t id with
      | Netlist.Lut { arity; _ } ->
          if Sttc_logic.Truth.arity c <> arity then
            invalid_arg "Transform.program_luts: config arity mismatch"
      | _ -> invalid_arg "Transform.program_luts: not a LUT");
      Hashtbl.replace tbl id c)
    configs;
  Netlist.with_kinds t (fun id kind fanins ->
      match (kind, Hashtbl.find_opt tbl id) with
      | Netlist.Lut { arity; _ }, Some c ->
          (Netlist.Lut { arity; config = Some c }, fanins)
      | _ -> (kind, fanins))

let gate_fn_of t id =
  match Netlist.kind t id with
  | Netlist.Gate fn -> fn
  | _ -> invalid_arg "Transform.absorb_driver: not a gate"

(* A primary output is a named reference, not a fanout: absorbing its
   driver would leave the output on the dead placeholder. *)
let drives_output t id =
  Array.exists (fun (_, d) -> d = id) (Netlist.outputs t)

let absorb_driver t id ~driver =
  let gate_fn = gate_fn_of t id in
  let driver_fn = gate_fn_of t driver in
  (match Netlist.fanouts t driver with
  | [ single ] when single = id -> ()
  | _ -> invalid_arg "Transform.absorb_driver: driver has other fanouts");
  if drives_output t driver then
    invalid_arg "Transform.absorb_driver: driver drives a primary output";
  let gate_fanins = Netlist.fanins t id in
  let driver_pos =
    let rec find k =
      if k >= Array.length gate_fanins then
        invalid_arg "Transform.absorb_driver: driver is not a fanin"
      else if gate_fanins.(k) = driver then k
      else find (k + 1)
    in
    find 0
  in
  let driver_fanins = Netlist.fanins t driver in
  let others =
    Array.of_list
      (List.filteri
         (fun k _ -> k <> driver_pos)
         (Array.to_list gate_fanins))
  in
  let merged = Array.append driver_fanins others in
  let arity = Array.length merged in
  if arity > Sttc_logic.Truth.max_arity then
    invalid_arg "Transform.absorb_driver: merged arity too large";
  let d_arity = Array.length driver_fanins in
  (* composed function over [driver fanins; other gate fanins] *)
  let config =
    Sttc_logic.Truth.create ~arity (fun inputs ->
        let d_out =
          Sttc_logic.Gate_fn.eval driver_fn (Array.sub inputs 0 d_arity)
        in
        let gate_inputs =
          Array.init (Array.length gate_fanins) (fun k ->
              if k = driver_pos then d_out
              else if k < driver_pos then inputs.(d_arity + k)
              else inputs.(d_arity + k - 1))
        in
        Sttc_logic.Gate_fn.eval gate_fn gate_inputs)
  in
  Netlist.with_kinds t (fun nid kind fanins ->
      if nid = id then (Netlist.Lut { arity; config = Some config }, merged)
      else if nid = driver then
        (* dead placeholder, removed by [sweep] *)
        (Netlist.Gate Sttc_logic.Gate_fn.Buf, [| fanins.(0) |])
      else (kind, fanins))

let absorbable_driver t id =
  match Netlist.kind t id with
  | Netlist.Gate gate_fn ->
      let candidates =
        Array.to_list (Netlist.fanins t id)
        |> List.filter_map (fun src ->
               match (Netlist.kind t src, Netlist.fanouts t src) with
               | Netlist.Gate src_fn, [ single ]
                 when single = id && not (drives_output t src) ->
                   let merged_arity =
                     Sttc_logic.Gate_fn.arity src_fn
                     + Sttc_logic.Gate_fn.arity gate_fn - 1
                   in
                   if merged_arity <= Sttc_logic.Truth.max_arity then
                     Some (merged_arity, src)
                   else None
               | _ -> None)
      in
      (match List.sort compare candidates with
      | (_, src) :: _ -> Some src
      | [] -> None)
  | _ -> None

let sweep t =
  (* A node is live when a primary output or a flip-flop (or one of their
     transitive fanins) reads it. *)
  let n = Netlist.node_count t in
  let live = Array.make n false in
  let rec mark id =
    if not live.(id) then begin
      live.(id) <- true;
      Array.iter mark (Netlist.fanins t id)
    end
  in
  List.iter mark (Netlist.pos t);
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with Netlist.Dff -> mark id | _ -> ())
    t;
  (* keep primary inputs even when unread: they are part of the interface *)
  List.iter (fun id -> live.(id) <- true) (Netlist.pis t);
  let map = Array.make n (-1) in
  let b = Netlist.Builder.create ~design_name:(Netlist.design_name t) () in
  (* pass 1: declare sources and defer flip-flops *)
  Netlist.iter
    (fun id node ->
      if live.(id) then
        match node.Netlist.kind with
        | Netlist.Pi -> map.(id) <- Netlist.Builder.add_pi b node.Netlist.name
        | Netlist.Const v ->
            map.(id) <- Netlist.Builder.add_const b node.Netlist.name v
        | Netlist.Dff ->
            map.(id) <- Netlist.Builder.add_dff_deferred b node.Netlist.name
        | Netlist.Gate _ | Netlist.Lut _ -> ())
    t;
  (* pass 2: combinational nodes in topological order *)
  Array.iter
    (fun id ->
      let node = Netlist.node t id in
      if live.(id) then
        match node.Netlist.kind with
        | Netlist.Gate fn ->
            map.(id) <-
              Netlist.Builder.add_gate b node.Netlist.name fn
                (Array.map (fun s -> map.(s)) node.Netlist.fanins)
        | Netlist.Lut { config; _ } ->
            map.(id) <-
              Netlist.Builder.add_lut b node.Netlist.name ?config
                (Array.map (fun s -> map.(s)) node.Netlist.fanins)
        | Netlist.Pi | Netlist.Const _ | Netlist.Dff -> ())
    (Netlist.topo_order t);
  (* pass 3: wire flip-flops and outputs *)
  Netlist.iter
    (fun id node ->
      if live.(id) then
        match node.Netlist.kind with
        | Netlist.Dff ->
            Netlist.Builder.set_dff_input b map.(id) map.((Netlist.fanins t id).(0))
        | _ -> ())
    t;
  Array.iter
    (fun (name, id) -> Netlist.Builder.add_output b name map.(id))
    (Netlist.outputs t);
  (Netlist.Builder.finalize b, map)
