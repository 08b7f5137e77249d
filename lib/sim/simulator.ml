module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn
module A = Bigarray.Array1

type rail = (int64, Bigarray.int64_elt, Bigarray.c_layout) A.t

type t = {
  prog : Netlist.program;
  (* per instruction of [prog]: the node's kind, a LUT carrying its
     effective configuration ([None] evaluates to X) *)
  op : Netlist.kind array;
  (* per node: lanes known 1 / known 0; a lane in neither is X *)
  ones : rail;
  zeros : rail;
  (* flip-flop state by dff position *)
  st_ones : rail;
  st_zeros : rail;
}

let rail n = A.create Bigarray.int64 Bigarray.c_layout n

let compile ~ternary ~configs nl =
  let config = Hashtbl.create 16 in
  List.iter
    (fun (id, c) ->
      match Netlist.kind nl id with
      | Netlist.Lut { arity; _ } ->
          if Truth.arity c <> arity then
            invalid_arg "Simulator.create: config arity mismatch";
          Hashtbl.replace config id c
      | _ -> invalid_arg "Simulator.create: config target is not a LUT")
    configs;
  let kind id =
    match Netlist.kind nl id with
    | Netlist.Lut { arity; config = c } ->
        let c = match Hashtbl.find_opt config id with Some _ as o -> o | None -> c in
        if c = None && not ternary then
          invalid_arg ("Simulator.create: unprogrammed LUT " ^ Netlist.name nl id);
        Netlist.Lut { arity; config = c }
    | k -> k
  in
  (* reject in node-id order, as the error names the first such LUT *)
  Netlist.iter (fun id _ -> ignore (kind id)) nl;
  let prog = Netlist.program nl in
  let n = Netlist.node_count nl and n_dffs = Array.length prog.Netlist.dffs in
  let t =
    {
      prog;
      op = Array.map kind prog.Netlist.dst;
      ones = rail n;
      zeros = rail n;
      st_ones = rail n_dffs;
      st_zeros = rail n_dffs;
    }
  in
  A.fill t.ones 0L;
  A.fill t.zeros 0L;
  A.fill t.st_ones 0L;
  A.fill t.st_zeros (-1L);
  t

let create ?(configs = []) nl = compile ~ternary:false ~configs nl
let create_ternary ?(configs = []) nl = compile ~ternary:true ~configs nl

let reset t =
  A.fill t.st_ones 0L;
  A.fill t.st_zeros (-1L)

let set_state_rails t ~ones ~zeros =
  let n = A.dim t.st_ones in
  if Array.length ones <> n || Array.length zeros <> n then
    invalid_arg "Simulator.set_state: wrong length";
  Array.iteri (A.unsafe_set t.st_ones) ones;
  Array.iteri (A.unsafe_set t.st_zeros) zeros

let set_state t st = set_state_rails t ~ones:st ~zeros:(Array.map Int64.lognot st)
let state t = Array.init (A.dim t.st_ones) (A.get t.st_ones)

(* The one evaluation loop, over the rails of every node. *)
let run t =
  let ones = t.ones and zeros = t.zeros in
  let { Netlist.fanin; first; dst; dffs; _ } = t.prog in
  Array.iteri
    (fun i ff ->
      A.unsafe_set ones ff (A.unsafe_get t.st_ones i);
      A.unsafe_set zeros ff (A.unsafe_get t.st_zeros i))
    dffs;
  for i = 0 to Array.length t.op - 1 do
    let d = dst.(i) and a = first.(i) and b = first.(i + 1) in
    match t.op.(i) with
    | Netlist.Const v ->
        A.unsafe_set ones d (if v then -1L else 0L);
        A.unsafe_set zeros d (if v then 0L else -1L)
    | Netlist.Gate Gate_fn.Buf ->
        A.unsafe_set ones d (A.unsafe_get ones fanin.(a));
        A.unsafe_set zeros d (A.unsafe_get zeros fanin.(a))
    | Netlist.Gate Gate_fn.Not ->
        A.unsafe_set ones d (A.unsafe_get zeros fanin.(a));
        A.unsafe_set zeros d (A.unsafe_get ones fanin.(a))
    | Netlist.Gate
        ((Gate_fn.And _ | Gate_fn.Nand _ | Gate_fn.Or _ | Gate_fn.Nor _) as g) ->
        (* AND: ones = all ones, zeros = any zero; OR is the dual *)
        let is_and = match g with Gate_fn.And _ | Gate_fn.Nand _ -> true | _ -> false in
        let conj = if is_and then ones else zeros
        and disj = if is_and then zeros else ones in
        let all = ref (-1L) and any = ref 0L in
        for k = a to b - 1 do
          let s = fanin.(k) in
          all := Int64.logand !all (A.unsafe_get conj s);
          any := Int64.logor !any (A.unsafe_get disj s)
        done;
        (* AND and NOR put the conjunction on the ones rail *)
        let upright = match g with Gate_fn.And _ | Gate_fn.Nor _ -> true | _ -> false in
        A.unsafe_set ones d (if upright then !all else !any);
        A.unsafe_set zeros d (if upright then !any else !all)
    | Netlist.Gate ((Gate_fn.Xor _ | Gate_fn.Xnor _) as g) ->
        (* known where every input is known; then the parity of ones *)
        let known = ref (-1L) and par = ref 0L in
        for k = a to b - 1 do
          let s = fanin.(k) in
          let o = A.unsafe_get ones s in
          known := Int64.logand !known (Int64.logor o (A.unsafe_get zeros s));
          par := Int64.logxor !par o
        done;
        let p = Int64.logand !par !known
        and q = Int64.logand (Int64.lognot !par) !known in
        let upright = match g with Gate_fn.Xor _ -> true | _ -> false in
        A.unsafe_set ones d (if upright then p else q);
        A.unsafe_set zeros d (if upright then q else p)
    | Netlist.Lut { config = Some c; _ } ->
        (* a row is compatible with a lane unless some input is known to
           the opposite value; the output is known iff every compatible
           row agrees ({!Sttc_logic.Ternary.eval_truth}) *)
        let any1 = ref 0L and any0 = ref 0L in
        for r = 0 to (1 lsl (b - a)) - 1 do
          let m = ref (-1L) in
          for k = a to b - 1 do
            let s = fanin.(k) in
            let against =
              if (r lsr (k - a)) land 1 = 1 then A.unsafe_get zeros s
              else A.unsafe_get ones s
            in
            m := Int64.logand !m (Int64.lognot against)
          done;
          if Truth.row c r then any1 := Int64.logor !any1 !m
          else any0 := Int64.logor !any0 !m
        done;
        A.unsafe_set ones d (Int64.logand !any1 (Int64.lognot !any0));
        A.unsafe_set zeros d (Int64.logand !any0 (Int64.lognot !any1))
    | Netlist.Lut { config = None; _ } ->
        A.unsafe_set ones d 0L;
        A.unsafe_set zeros d 0L
    | Netlist.Pi | Netlist.Dff -> ()
  done

let eval_rails t ~ones ~zeros =
  let pis = t.prog.Netlist.pis in
  let n = Array.length pis in
  if Array.length ones <> n || Array.length zeros <> n then
    invalid_arg "Simulator: PI count mismatch";
  Array.iteri
    (fun i pi ->
      A.unsafe_set t.ones pi ones.(i);
      A.unsafe_set t.zeros pi zeros.(i))
    pis;
  run t

let ones t id = A.get t.ones id
let zeros t id = A.get t.zeros id

let eval_comb t pi_lanes =
  eval_rails t ~ones:pi_lanes ~zeros:(Array.map Int64.lognot pi_lanes);
  Array.map (A.get t.ones) t.prog.Netlist.out_drivers

let step t pi_lanes =
  let outs = eval_comb t pi_lanes in
  Array.iteri
    (fun i d ->
      A.unsafe_set t.st_ones i (A.unsafe_get t.ones d);
      A.unsafe_set t.st_zeros i (A.unsafe_get t.zeros d))
    t.prog.Netlist.d_inputs;
  outs

let node_values t = Array.init (A.dim t.ones) (A.get t.ones)
