module Netlist = Sttc_netlist.Netlist
module Simulator = Sttc_sim.Simulator
module Truth = Sttc_logic.Truth
module Rng = Sttc_util.Rng
module Hybrid = Sttc_core.Hybrid
module Encode = Sttc_sim.Encode

type lut_progress = {
  lut : Netlist.node_id;
  resolved_rows : int;
  total_rows : int;
  unreachable_rows : int;
}

type result = {
  per_lut : lut_progress list;
  fully_resolved : int;
  lut_count : int;
  resolution : float;
  functional_resolution : float;
  patterns_tried : int;
  oracle_queries : int;
  seconds : float;
}

let run ?(budget_patterns = 20_000) ?(targeted = false) ?(target_attempts = 4)
    ?(seed = 0xa77ac) hybrid =
  let t0 = Sttc_util.Timing.now_s () in
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  let rng = Rng.make seed in
  let luts = Hybrid.lut_ids hybrid in
  let pi_ids = Array.of_list (Netlist.pis foundry) in
  let dff_ids = Array.of_list (Netlist.dffs foundry) in
  let n_in = Array.length pi_ids + Array.length dff_ids in
  let arity_of id =
    match Netlist.kind foundry id with
    | Netlist.Lut { arity; _ } -> arity
    | _ -> invalid_arg "Tt_attack: not a LUT"
  in
  (* resolved.(lut) is a (row -> bool) table being filled in *)
  let resolved = Hashtbl.create 16 in
  let unreachable = Hashtbl.create 16 in
  List.iter
    (fun id ->
      Hashtbl.add resolved id (Array.make (1 lsl arity_of id) None);
      Hashtbl.add unreachable id (Array.make (1 lsl arity_of id) false))
    luts;
  (* Per LUT, two ternary simulators of the foundry view where the LUT is
     forced to constant 0 / 1 (every other LUT stays unknown). *)
  let forced =
    List.map
      (fun id ->
        let sim v =
          let const = if v then Truth.const_true else Truth.const_false in
          Simulator.create_ternary ~configs:[ (id, const ~arity:(arity_of id)) ] foundry
        in
        (id, (sim false, sim true)))
      luts
  in
  let n_pis = Array.length pi_ids in
  (* observation points: the primary outputs, then the flip-flop D inputs
     (observable via scan); point j is the oracle's output j *)
  let points =
    Array.append
      (Array.map snd (Netlist.outputs foundry))
      (Array.map (fun ff -> (Netlist.fanins foundry ff).(0)) dff_ids)
  in
  let bit w lane = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
  (* evaluate both forcings on a batch of assignments, one per lane *)
  let evaluate batch (s0, s1) =
    let word j =
      let w = ref 0L in
      Array.iteri
        (fun lane a -> if a.(j) then w := Int64.logor !w (Int64.shift_left 1L lane))
        batch;
      !w
    in
    let pis = Array.init n_pis word
    and state = Array.init (Array.length dff_ids) (fun i -> word (n_pis + i)) in
    List.iter
      (fun s ->
        Simulator.set_state s state;
        ignore (Simulator.eval_comb s pis))
      [ s0; s1 ]
  in
  let row_of_fanins (s0, _) id lane =
    (* the row index addressed by the LUT's (known) fanin values *)
    let fanins = Netlist.fanins foundry id in
    let rec go k acc =
      if k >= Array.length fanins then Some acc
      else if bit (Simulator.ones s0 fanins.(k)) lane then
        go (k + 1) (acc lor (1 lsl k))
      else if bit (Simulator.zeros s0 fanins.(k)) lane then go (k + 1) acc
      else None
    in
    go 0 0
  in
  (* are the two forcings known and different at point j? *)
  let differs (s0, s1) lane j =
    let d = points.(j) in
    bit
      (Int64.logor
         (Int64.logand (Simulator.ones s0 d) (Simulator.zeros s1 d))
         (Int64.logand (Simulator.zeros s0 d) (Simulator.ones s1 d)))
      lane
  in
  (* the first observation point from j on, stepping by [by], that tells
     the forcings apart.  Any such point yields the same row value; the
     random phase takes the last one and certification the first. *)
  let rec find sims lane j ~by =
    if j < 0 || j >= Array.length points then None
    else if differs sims lane j then Some j
    else find sims lane (j + by) ~by
  in
  (* the oracle's value at point j tells which forcing matches reality,
     i.e. the row's truth value: agreeing with the 0-forcing means 0 *)
  let row_value (s0, _) lane j observed =
    observed <> bit (Simulator.ones s0 points.(j)) lane
  in
  let patterns = ref 0 in
  while !patterns < budget_patterns do
    (* random primary/state assignments, PIs then state, up to 64 per
       batch *)
    let batch =
      Array.init (min 64 (budget_patterns - !patterns)) (fun _ ->
          Array.init n_in (fun _ -> Rng.bool rng))
    in
    (* a LUT whose table is complete has nothing left to test *)
    let open_luts =
      List.filter
        (fun (id, _) -> Array.mem None (Hashtbl.find resolved id))
        forced
    in
    List.iter (fun (_, sims) -> evaluate batch sims) open_luts;
    Array.iteri
      (fun lane assignment ->
        Sttc_util.Budget.check ();
        incr patterns;
        (* For each LUT with unresolved rows, test observability of the
           row this pattern justifies. *)
        List.iter
          (fun (id, sims) ->
            let table = Hashtbl.find resolved id in
            match row_of_fanins sims id lane with
            | None -> ()
            | Some row when table.(row) <> None -> ()
            | Some row -> (
                match find sims lane (Array.length points - 1) ~by:(-1) with
                | None -> ()
                | Some j ->
                    let out = Oracle.query oracle assignment in
                    table.(row) <- Some (row_value sims lane j out.(j))))
          open_luts)
      batch
  done;
  (* ---------- targeted ATPG phase ---------- *)
  if targeted then begin
    let module Cnf = Sttc_logic.Cnf in
    let module Sat = Sttc_logic.Sat in
    let justify (c : Encode.keyed) id row =
      (* pin the LUT's fanins in copy [c] to the row's bits *)
      let fanins = Netlist.fanins foundry id in
      Encode.pin c.Encode.cnf
        (Array.to_list (Array.map (fun src -> c.Encode.node_lits.(src)) fanins))
        (Array.init (Array.length fanins) (fun k -> (row lsr k) land 1 = 1))
    in
    (* order of oracle inputs: PIs then state, as the random phase uses *)
    let justifiable id row =
      (* can the row even occur at the LUT's fanins? *)
      let c = Encode.encode foundry in
      justify c id row;
      match Sat.solve ~max_conflicts:50_000 c.Encode.cnf with
      | Sat.Unsat -> false
      | Sat.Sat _ | Sat.Unknown _ -> true
    in
    let resolve_row id row =
      let table = Hashtbl.find resolved id in
      if table.(row) <> None then ()
      else if not (justifiable id row) then
        (Hashtbl.find unreachable id).(row) <- true
      else begin
        let attempt = ref 0 in
        let blocked = ref [] in
        while table.(row) = None && !attempt < target_attempts do
          Sttc_util.Budget.check ();
          incr attempt;
          (* copy A forces the LUT low, copy B high; other keys shared *)
          let c1 = Encode.encode foundry in
          let cnf = c1.Encode.cnf in
          let other_keys =
            List.filter (fun (k, _) -> k <> id) c1.Encode.keys
          in
          let c2 =
            Encode.encode ~cnf ~share_inputs:c1.Encode.inputs
              ~share_keys:other_keys foundry
          in
          Encode.pin cnf
            [ c1.Encode.node_lits.(id); c2.Encode.node_lits.(id) ]
            [| false; true |];
          justify c1 id row;
          (* sensitize: some observation point differs *)
          Cnf.add_clause cnf
            (Encode.miter cnf (List.map snd c1.Encode.outputs)
               (List.map snd c2.Encode.outputs));
          (* block previously failed patterns *)
          List.iter
            (fun bits ->
              Cnf.add_clause cnf
                (List.map Int.neg
                   (Encode.bit_lits (List.map snd c1.Encode.inputs) bits)))
            !blocked;
          match Sat.solve ~max_conflicts:50_000 cnf with
          | Sat.Unsat when !blocked = [] ->
              (* justifiable but never observable: the configuration bit
                 cannot influence any observation point under any key of
                 the other missing gates, so it is as functionally
                 irrelevant as an unreachable row *)
              (Hashtbl.find unreachable id).(row) <- true;
              attempt := target_attempts
          | Sat.Unknown _ | Sat.Unsat -> attempt := target_attempts
          | Sat.Sat model ->
              let bits =
                Array.of_list
                  (List.map
                     (fun (_, l) -> Sat.model_value model l)
                     c1.Encode.inputs)
              in
              (* certify under all other-key assignments with ternary
                 simulation *)
              let sims = List.assoc id forced in
              evaluate [| bits |] sims;
              let certified =
                match row_of_fanins sims id 0 with
                | Some r when r = row -> find sims 0 0 ~by:1
                | _ -> None
              in
              (match certified with
              | None -> blocked := bits :: !blocked
              | Some j ->
                  let out = Oracle.query oracle bits in
                  table.(row) <- Some (row_value sims 0 j out.(j)))
        done
      end
    in
    List.iter
      (fun id ->
        let table = Hashtbl.find resolved id in
        Array.iteri (fun row v -> if v = None then resolve_row id row) table)
      luts
  end;
  let per_lut =
    List.map
      (fun id ->
        let table = Hashtbl.find resolved id in
        let total = Array.length table in
        let done_ =
          Array.fold_left
            (fun acc v -> if v = None then acc else acc + 1)
            0 table
        in
        let unreach =
          Array.fold_left
            (fun acc v -> if v then acc + 1 else acc)
            0 (Hashtbl.find unreachable id)
        in
        {
          lut = id;
          resolved_rows = done_;
          total_rows = total;
          unreachable_rows = unreach;
        })
      luts
  in
  let total_rows = List.fold_left (fun a p -> a + p.total_rows) 0 per_lut in
  let done_rows = List.fold_left (fun a p -> a + p.resolved_rows) 0 per_lut in
  let settled_rows =
    List.fold_left (fun a p -> a + p.resolved_rows + p.unreachable_rows) 0 per_lut
  in
  {
    per_lut;
    fully_resolved =
      List.length (List.filter (fun p -> p.resolved_rows = p.total_rows) per_lut);
    lut_count = List.length luts;
    resolution =
      (if total_rows = 0 then 0.
       else float_of_int done_rows /. float_of_int total_rows);
    functional_resolution =
      (if total_rows = 0 then 0.
       else float_of_int settled_rows /. float_of_int total_rows);
    patterns_tried = !patterns;
    oracle_queries = Oracle.queries oracle;
    seconds = Sttc_util.Timing.now_s () -. t0;
  }
