module Netlist = Sttc_netlist.Netlist
module Cnf = Sttc_logic.Cnf
module Truth = Sttc_logic.Truth

type keyed = {
  cnf : Cnf.t;
  inputs : (string * Cnf.lit) list;
  outputs : (string * Cnf.lit) list;
  keys : (Netlist.node_id * Cnf.lit array) list;
  node_lits : Cnf.lit array;
}

let encode ?cnf ?(share_inputs = []) ?(share_keys = []) nl =
  let cnf = match cnf with Some c -> c | None -> Cnf.create () in
  let input_tbl = Hashtbl.create 32 in
  List.iter (fun (n, l) -> Hashtbl.replace input_tbl n l) share_inputs;
  let input_var name =
    match Hashtbl.find_opt input_tbl name with
    | Some l -> l
    | None ->
        let v = Cnf.fresh_var cnf in
        Hashtbl.add input_tbl name v;
        v
  in
  let key_tbl = Hashtbl.create 16 in
  List.iter (fun (id, ls) -> Hashtbl.replace key_tbl id ls) share_keys;
  let lit = Array.make (Netlist.node_count nl) 0 in
  let inputs = ref [] and keys = ref [] in
  Array.iter
    (fun id ->
      let node = Netlist.node nl id in
      match node.Netlist.kind with
      | Netlist.Pi | Netlist.Dff ->
          (* names are unique in a netlist: each input is listed once *)
          let l = input_var node.Netlist.name in
          inputs := (node.Netlist.name, l) :: !inputs;
          lit.(id) <- l
      | Netlist.Const v ->
          let x = Cnf.fresh_var cnf in
          Cnf.add_clause cnf [ (if v then x else -x) ];
          lit.(id) <- x
      | Netlist.Gate fn ->
          let x = Cnf.fresh_var cnf in
          Cnf.encode_gate cnf x fn
            (Array.to_list (Array.map (fun s -> lit.(s)) node.Netlist.fanins));
          lit.(id) <- x
      | Netlist.Lut { arity; config = Some c } ->
          let x = Cnf.fresh_var cnf in
          let ins = Array.map (fun s -> lit.(s)) node.Netlist.fanins in
          (* fixed table: clauses row by row *)
          for r = 0 to (1 lsl arity) - 1 do
            let antecedent =
              List.init arity (fun k ->
                  let l = ins.(k) in
                  if (r lsr k) land 1 = 1 then -l else l)
            in
            let head = if Truth.row c r then x else -x in
            Cnf.add_clause cnf (head :: antecedent)
          done;
          lit.(id) <- x
      | Netlist.Lut { arity; config = None } ->
          let x = Cnf.fresh_var cnf in
          let ins = Array.map (fun s -> lit.(s)) node.Netlist.fanins in
          let key =
            match Hashtbl.find_opt key_tbl id with
            | Some k -> k
            | None ->
                let k = Array.init (1 lsl arity) (fun _ -> Cnf.fresh_var cnf) in
                Hashtbl.add key_tbl id k;
                k
          in
          keys := (id, key) :: !keys;
          Cnf.encode_truth_lut cnf x ~key ~inputs:ins;
          lit.(id) <- x)
    (Netlist.topo_order nl);
  let outputs =
    Array.to_list
      (Array.map (fun (name, id) -> (name, lit.(id))) (Netlist.outputs nl))
    @ List.map
        (fun ff -> (Netlist.name nl ff, lit.((Netlist.fanins nl ff).(0))))
        (Netlist.dffs nl)
  in
  { cnf; inputs = List.rev !inputs; outputs; keys = List.rev !keys; node_lits = lit }

let miter cnf xs ys =
  List.map2
    (fun x y ->
      let d = Cnf.fresh_var cnf in
      Cnf.encode_xor cnf d x y;
      d)
    xs ys

let bit_lits lits bits = List.mapi (fun i l -> if bits.(i) then l else -l) lits

let pin cnf lits bits =
  List.iter (fun l -> Cnf.add_clause cnf [ l ]) (bit_lits lits bits)

(* One-hot candidate restriction: the keyed LUT must implement one of the
   listed truth tables. *)
let restrict_keys cnf keys candidates =
  List.iter
    (fun (id, key) ->
      match List.assoc_opt id candidates with
      | None -> ()
      | Some tables ->
          if tables = [] then
            invalid_arg "Encode.restrict_keys: empty candidate list";
          let selectors =
            List.map
              (fun table ->
                let s = Cnf.fresh_var cnf in
                Array.iteri
                  (fun r l ->
                    (* s -> key.(r) = table row r *)
                    Cnf.add_clause cnf [ -s; (if Truth.row table r then l else -l) ])
                  key;
                s)
              tables
          in
          Cnf.add_clause cnf selectors)
    keys

type unrolled = {
  u_cnf : Cnf.t;
  u_keys : (Netlist.node_id * Cnf.lit array) list;
  frame_pis : (string * Cnf.lit) list array;
  frame_pos : (string * Cnf.lit) list array;
}

let encode_unrolled ?cnf ?(share_keys = []) ?share_frame_pis ~frames nl =
  if frames < 1 then invalid_arg "Encode.encode_unrolled: frames";
  let cnf = match cnf with Some c -> c | None -> Cnf.create () in
  let n_pos = Array.length (Netlist.outputs nl) in
  let dff_names = List.map (Netlist.name nl) (Netlist.dffs nl) in
  (* reset state: constant-0 literals *)
  let state = ref (List.map (fun name ->
      let v = Cnf.fresh_var cnf in
      Cnf.add_clause cnf [ -v ];
      (name, v)) dff_names)
  in
  let keys = ref share_keys in
  let frame_pis = Array.make frames [] in
  let frame_pos = Array.make frames [] in
  for frame = 0 to frames - 1 do
    let share_inputs =
      !state
      @ (match share_frame_pis with
        | Some arr -> arr.(frame)
        | None -> [])
    in
    let keyed = encode ~cnf ~share_inputs ~share_keys:!keys nl in
    keys := keyed.keys;
    (* split the inputs back into PIs and state *)
    frame_pis.(frame) <-
      List.filter (fun (n, _) -> not (List.mem n dff_names)) keyed.inputs;
    (* outputs list is POs (first n_pos entries) then flip-flop D-inputs *)
    let pos = List.filteri (fun i _ -> i < n_pos) keyed.outputs in
    let ff_inputs = List.filteri (fun i _ -> i >= n_pos) keyed.outputs in
    frame_pos.(frame) <- pos;
    state := ff_inputs
  done;
  { u_cnf = cnf; u_keys = !keys; frame_pis; frame_pos }

let key_of_model keys model =
  List.map
    (fun (id, key) ->
      let rows = Array.length key in
      let arity =
        let rec log2 n acc = if n <= 1 then acc else log2 (n / 2) (acc + 1) in
        log2 rows 0
      in
      let bits = ref 0L in
      Array.iteri
        (fun r l ->
          if Sttc_logic.Sat.model_value model l then
            bits := Int64.logor !bits (Int64.shift_left 1L r))
        key;
      (id, Truth.of_bits ~arity !bits))
    keys
