module Gate_fn = Sttc_logic.Gate_fn

type t = {
  nodes : int;
  pis : int;
  pos : int;
  dffs : int;
  gates : int;
  luts : int;
  depth : int;
  gate_mix : (string * int) list;
  fanin_histogram : (int * int) list;
  fanout_histogram : (int * int) list;
  avg_fanin : float;
  avg_fanout : float;
}

let compute nl =
  let mix = Hashtbl.create 16 in
  let fanin_h = Hashtbl.create 8 in
  let total_fanin = ref 0 and comb = ref 0 in
  Netlist.iter
    (fun _id node ->
      match node.Netlist.kind with
      | Netlist.Gate fn ->
          incr comb;
          total_fanin := !total_fanin + Array.length node.Netlist.fanins;
          let key = Gate_fn.name fn in
          Hashtbl.replace mix key (1 + Option.value ~default:0 (Hashtbl.find_opt mix key));
          let a = Array.length node.Netlist.fanins in
          Hashtbl.replace fanin_h a
            (1 + Option.value ~default:0 (Hashtbl.find_opt fanin_h a))
      | Netlist.Lut { arity; _ } ->
          incr comb;
          total_fanin := !total_fanin + arity;
          Hashtbl.replace mix "LUT"
            (1 + Option.value ~default:0 (Hashtbl.find_opt mix "LUT"));
          Hashtbl.replace fanin_h arity
            (1 + Option.value ~default:0 (Hashtbl.find_opt fanin_h arity))
      | _ -> ())
    nl;
  let fanout_h = Hashtbl.create 8 in
  let total_fanout = ref 0 and drivers = ref 0 in
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with
      | Netlist.Gate _ | Netlist.Lut _ | Netlist.Pi | Netlist.Dff ->
          let d = Netlist.fanout_degree nl id in
          incr drivers;
          total_fanout := !total_fanout + d;
          let bucket = min d 4 in
          Hashtbl.replace fanout_h bucket
            (1 + Option.value ~default:0 (Hashtbl.find_opt fanout_h bucket))
      | Netlist.Const _ -> ())
    nl;
  let sorted_desc tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let sorted_asc tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  {
    nodes = Netlist.node_count nl;
    pis = List.length (Netlist.pis nl);
    pos = Array.length (Netlist.outputs nl);
    dffs = List.length (Netlist.dffs nl);
    gates = Netlist.gate_count nl;
    luts = List.length (Netlist.luts nl);
    depth = Query.depth nl;
    gate_mix = sorted_desc mix;
    fanin_histogram = sorted_asc fanin_h;
    fanout_histogram = sorted_asc fanout_h;
    avg_fanin =
      (if !comb = 0 then 0. else float_of_int !total_fanin /. float_of_int !comb);
    avg_fanout =
      (if !drivers = 0 then 0.
       else float_of_int !total_fanout /. float_of_int !drivers);
  }

let render t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "nodes %d | PI %d PO %d DFF %d | combinational %d (LUT %d) | depth %d\n"
       t.nodes t.pis t.pos t.dffs t.gates t.luts t.depth);
  Buffer.add_string buf
    (Printf.sprintf "avg fan-in %.2f | avg fan-out %.2f\n" t.avg_fanin
       t.avg_fanout);
  Buffer.add_string buf "gate mix: ";
  List.iter
    (fun (name, c) -> Buffer.add_string buf (Printf.sprintf "%s:%d " name c))
    t.gate_mix;
  Buffer.add_string buf "\nfan-in histogram: ";
  List.iter
    (fun (a, c) -> Buffer.add_string buf (Printf.sprintf "%d->%d " a c))
    t.fanin_histogram;
  Buffer.add_string buf "\nfan-out histogram (4 = 4+): ";
  List.iter
    (fun (b, c) -> Buffer.add_string buf (Printf.sprintf "%d->%d " b c))
    t.fanout_histogram;
  Buffer.add_char buf '\n';
  Buffer.contents buf
