module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Bdd = Sttc_logic.Bdd
module Rng = Sttc_util.Rng

type failure = {
  witness : (string * bool) list;
  signal : string;
}

type result = Equivalent | Different of failure | Inconclusive of string

(* ---------- shared input space ---------- *)

let input_names nl =
  List.map (Netlist.name nl) (Netlist.pis nl)
  @ List.map (Netlist.name nl) (Netlist.dffs nl)

let check_interfaces a b =
  let sort = List.sort String.compare in
  let ins_a = sort (input_names a) and ins_b = sort (input_names b) in
  if ins_a <> ins_b then Some "primary input / state spaces differ"
  else
    let outs nl =
      sort (Array.to_list (Array.map fst (Netlist.outputs nl)))
    in
    if outs a <> outs b then Some "primary output sets differ" else None

(* ---------- random simulation ---------- *)

let check_random ?(vectors = 4096) ~seed a b =
  match check_interfaces a b with
  | Some m -> Inconclusive m
  | None -> (
      match (Simulator.create a, Simulator.create b) with
      | exception Invalid_argument m -> Inconclusive m
      | sim_a, sim_b ->
          let rng = Rng.make seed in
          let pis_a = Array.of_list (Netlist.pis a) in
          let pi_names = Array.map (Netlist.name a) pis_a in
          let dffs_a = Array.of_list (Netlist.dffs a) in
          let dff_names = Array.map (Netlist.name a) dffs_a in
          (* order B's state to match A's names *)
          let out_names = Array.map fst (Netlist.outputs a) in
          let out_index_b =
            let names_b = Array.map fst (Netlist.outputs b) in
            Array.map
              (fun n ->
                let rec find i =
                  if names_b.(i) = n then i else find (i + 1)
                in
                find 0)
              out_names
          in
          let dff_order_b =
            let names_b =
              Array.of_list (List.map (Netlist.name b) (Netlist.dffs b))
            in
            Array.map
              (fun n ->
                let rec find i =
                  if names_b.(i) = n then i else find (i + 1)
                in
                find 0)
              dff_names
          in
          let batches = max 1 ((vectors + 63) / 64) in
          let failure = ref None in
          (let batch = ref 0 in
           while !failure = None && !batch < batches do
             incr batch;
             let pi_lanes =
               Array.map (fun _ -> Rng.int64 rng) pis_a
             in
             let st_lanes = Array.map (fun _ -> Rng.int64 rng) dffs_a in
             Simulator.set_state sim_a st_lanes;
             let st_b = Array.make (Array.length dff_order_b) 0L in
             Array.iteri (fun i bi -> st_b.(bi) <- st_lanes.(i)) dff_order_b;
             Simulator.set_state sim_b st_b;
             (* outputs and next-state functions from one step each *)
             let outs_a = Simulator.step sim_a pi_lanes in
             let outs_b = Simulator.step sim_b pi_lanes in
             let next_a = Simulator.state sim_a in
             let next_b_raw = Simulator.state sim_b in
             let next_b = Array.make (Array.length next_a) 0L in
             Array.iteri (fun i bi -> next_b.(i) <- next_b_raw.(bi)) dff_order_b;
             let report signal diff =
               (* extract the first differing lane as a witness *)
               let lane =
                 let rec find l =
                   if Int64.logand (Int64.shift_right_logical diff l) 1L = 1L
                   then l
                   else find (l + 1)
                 in
                 find 0
               in
               let bit v =
                 Int64.logand (Int64.shift_right_logical v lane) 1L = 1L
               in
               let witness =
                 Array.to_list
                   (Array.mapi (fun i n -> (n, bit pi_lanes.(i))) pi_names)
                 @ Array.to_list
                     (Array.mapi (fun i n -> (n, bit st_lanes.(i))) dff_names)
               in
               failure := Some { witness; signal }
             in
             Array.iteri
               (fun i name ->
                 if !failure = None then begin
                   let diff =
                     Int64.logxor outs_a.(i) outs_b.(out_index_b.(i))
                   in
                   if diff <> 0L then report name diff
                 end)
               out_names;
             Array.iteri
               (fun i name ->
                 if !failure = None then begin
                   let diff = Int64.logxor next_a.(i) next_b.(i) in
                   if diff <> 0L then report name diff
                 end)
               dff_names
           done);
          (match !failure with
          | Some f -> Different f
          | None -> Equivalent))

(* ---------- CNF encoding ---------- *)

let encode_fixed_lut cnf out table inputs =
  let n = Array.length inputs in
  if Truth.arity table <> n then invalid_arg "Equiv: LUT arity";
  for r = 0 to (1 lsl n) - 1 do
    let antecedent =
      List.init n (fun k ->
          let l = inputs.(k) in
          if (r lsr k) land 1 = 1 then -l else l)
    in
    let head = if Truth.row table r then out else -out in
    Cnf.add_clause cnf (head :: antecedent)
  done

let encode_netlist cnf ~input_var nl =
  let n = Netlist.node_count nl in
  let lit = Array.make n 0 in
  Array.iter
    (fun id ->
      let node = Netlist.node nl id in
      match node.Netlist.kind with
      | Netlist.Pi | Netlist.Dff -> lit.(id) <- input_var node.Netlist.name
      | Netlist.Const v ->
          let x = Cnf.fresh_var cnf in
          Cnf.add_clause cnf [ (if v then x else -x) ];
          lit.(id) <- x
      | Netlist.Gate fn ->
          let x = Cnf.fresh_var cnf in
          let ins =
            Array.to_list (Array.map (fun s -> lit.(s)) node.Netlist.fanins)
          in
          Cnf.encode_gate cnf x fn ins;
          lit.(id) <- x
      | Netlist.Lut { config = Some c; _ } ->
          let x = Cnf.fresh_var cnf in
          let ins = Array.map (fun s -> lit.(s)) node.Netlist.fanins in
          encode_fixed_lut cnf x c ins;
          lit.(id) <- x
      | Netlist.Lut { config = None; _ } ->
          invalid_arg
            ("Equiv.encode_netlist: unprogrammed LUT " ^ node.Netlist.name))
    (Netlist.topo_order nl);
  let pos =
    Array.to_list
      (Array.map (fun (name, id) -> (name, lit.(id))) (Netlist.outputs nl))
  in
  let ff_inputs =
    List.map
      (fun ff -> (Netlist.name nl ff, lit.((Netlist.fanins nl ff).(0))))
      (Netlist.dffs nl)
  in
  (pos, ff_inputs)

let check_sat ?(max_conflicts = max_int) a b =
  match check_interfaces a b with
  | Some m -> Inconclusive m
  | None -> (
      let cnf = Cnf.create () in
      let vars = Hashtbl.create 64 in
      let input_var name =
        match Hashtbl.find_opt vars name with
        | Some v -> v
        | None ->
            let v = Cnf.fresh_var cnf in
            Hashtbl.add vars name v;
            v
      in
      match
        ( encode_netlist cnf ~input_var a,
          encode_netlist cnf ~input_var b )
      with
      | exception Invalid_argument m -> Inconclusive m
      | (pos_a, ffs_a), (pos_b, ffs_b) ->
          let assoc name l = List.assoc name l in
          let diffs =
            List.map
              (fun (name, la) ->
                let lb = assoc name pos_b in
                let d = Cnf.fresh_var cnf in
                Cnf.encode_xor cnf d la lb;
                (name, d))
              pos_a
            @ List.map
                (fun (name, la) ->
                  let lb = assoc name ffs_b in
                  let d = Cnf.fresh_var cnf in
                  Cnf.encode_xor cnf d la lb;
                  (name, d))
                ffs_a
          in
          Cnf.add_clause cnf (List.map snd diffs);
          let solver = Sat.Solver.of_cnf cnf in
          (match Sat.Solver.solve ~max_conflicts solver with
          | Sat.Unknown _ -> Inconclusive "SAT conflict budget exhausted"
          | Sat.Unsat -> Equivalent
          | Sat.Sat model ->
              let witness =
                Hashtbl.fold
                  (fun name v acc -> (name, Sat.model_value model v) :: acc)
                  vars []
                |> List.sort (fun (x, _) (y, _) -> String.compare x y)
              in
              let signal =
                match
                  List.find_opt
                    (fun (_, d) -> Sat.model_value model d)
                    diffs
                with
                | Some (name, _) -> name
                | None -> "?"
              in
              Different { witness; signal }))

let check_bdd a b =
  match check_interfaces a b with
  | Some m -> Inconclusive m
  | None -> (
      let m = Bdd.manager () in
      let vars = Hashtbl.create 64 in
      let next = ref 0 in
      let input_bdd name =
        match Hashtbl.find_opt vars name with
        | Some v -> Bdd.var m v
        | None ->
            let v = !next in
            incr next;
            Hashtbl.add vars name v;
            Bdd.var m v
      in
      let build nl =
        let lit = Array.make (Netlist.node_count nl) (Bdd.zero m) in
        Array.iter
          (fun id ->
            let node = Netlist.node nl id in
            match node.Netlist.kind with
            | Netlist.Pi | Netlist.Dff ->
                lit.(id) <- input_bdd node.Netlist.name
            | Netlist.Const v ->
                lit.(id) <- (if v then Bdd.one m else Bdd.zero m)
            | Netlist.Gate fn ->
                let ins =
                  Array.to_list
                    (Array.map (fun s -> lit.(s)) node.Netlist.fanins)
                in
                lit.(id) <-
                  (match fn with
                  | Sttc_logic.Gate_fn.Buf -> List.hd ins
                  | Sttc_logic.Gate_fn.Not -> Bdd.lnot m (List.hd ins)
                  | Sttc_logic.Gate_fn.And _ -> Bdd.land_list m ins
                  | Sttc_logic.Gate_fn.Nand _ ->
                      Bdd.lnot m (Bdd.land_list m ins)
                  | Sttc_logic.Gate_fn.Or _ -> Bdd.lor_list m ins
                  | Sttc_logic.Gate_fn.Nor _ -> Bdd.lnot m (Bdd.lor_list m ins)
                  | Sttc_logic.Gate_fn.Xor _ -> Bdd.lxor_list m ins
                  | Sttc_logic.Gate_fn.Xnor _ ->
                      Bdd.lnot m (Bdd.lxor_list m ins))
            | Netlist.Lut { config = Some c; _ } ->
                (* Shannon-style: OR of on-set cubes over fanin BDDs *)
                let ins = Array.map (fun s -> lit.(s)) node.Netlist.fanins in
                let acc = ref (Bdd.zero m) in
                for r = 0 to (1 lsl Truth.arity c) - 1 do
                  if Truth.row c r then begin
                    let cube = ref (Bdd.one m) in
                    Array.iteri
                      (fun k f ->
                        let f' =
                          if (r lsr k) land 1 = 1 then f else Bdd.lnot m f
                        in
                        cube := Bdd.land_ m !cube f')
                      ins;
                    acc := Bdd.lor_ m !acc !cube
                  end
                done;
                lit.(id) <- !acc
            | Netlist.Lut { config = None; _ } ->
                invalid_arg
                  ("Equiv.check_bdd: unprogrammed LUT " ^ node.Netlist.name))
          (Netlist.topo_order nl);
        lit
      in
      match (build a, build b) with
      | exception Invalid_argument msg -> Inconclusive msg
      | lit_a, lit_b ->
          let signals =
            Array.to_list
              (Array.map
                 (fun (name, id) -> (name, lit_a.(id), `B id))
                 (Netlist.outputs a))
          in
          ignore signals;
          let pairs =
            Array.to_list
              (Array.map
                 (fun (name, id) ->
                   let id_b =
                     let rec find i =
                       let name_b, idb = (Netlist.outputs b).(i) in
                       if name_b = name then idb else find (i + 1)
                     in
                     find 0
                   in
                   (name, lit_a.(id), lit_b.(id_b)))
                 (Netlist.outputs a))
            @ List.map
                (fun ff ->
                  let name = Netlist.name a ff in
                  let da = lit_a.((Netlist.fanins a ff).(0)) in
                  let ffb = Netlist.find_exn b name in
                  let db = lit_b.((Netlist.fanins b ffb).(0)) in
                  (name, da, db))
                (Netlist.dffs a)
          in
          let rec check = function
            | [] -> Equivalent
            | (name, fa, fb) :: rest ->
                if Bdd.equal fa fb then check rest
                else
                  let diff = Bdd.lxor_ m fa fb in
                  let assignment =
                    match Bdd.any_sat diff with
                    | Some l -> l
                    | None -> []
                  in
                  let by_index =
                    Hashtbl.fold (fun n v acc -> (v, n) :: acc) vars []
                  in
                  let witness =
                    List.map
                      (fun (v, value) -> (List.assoc v by_index, value))
                      assignment
                  in
                  Different { witness; signal = name }
          in
          check pairs)
