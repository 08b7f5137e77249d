module Netlist = Sttc_netlist.Netlist
module Query = Sttc_netlist.Query
module Gate_fn = Sttc_logic.Gate_fn
module Lognum = Sttc_util.Lognum

type constants = {
  alpha : int -> float;
  p : int -> float;
}

let paper_constants = { alpha = Gate_fn.paper_alpha; p = Gate_fn.paper_p }

let computed_constants =
  {
    alpha = (fun n -> if n = 1 then 1.5 else Gate_fn.computed_alpha n);
    p = (fun n -> float_of_int (Gate_fn.candidate_count n));
  }

type report = {
  missing_gates : int;
  accessible_inputs : int;
  total_config_bits : int;
  n_indep : Lognum.t;
  n_dep : Lognum.t;
  n_bf : Lognum.t;
  dependent_pairs : int;
}

let evaluate ?(constants = paper_constants) nl ~luts =
  if luts = [] then invalid_arg "Security.evaluate: no missing gates";
  List.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Lut _ -> ()
      | _ -> invalid_arg "Security.evaluate: node is not a LUT")
    luts;
  let seq_depth = Query.sequential_depth_to_po nl in
  let depth_of id =
    (* at least one clock to observe anything *)
    let d = seq_depth.(id) in
    if d = max_int then 1 else d + 1
  in
  let arity_of id =
    match Netlist.kind nl id with
    | Netlist.Lut { arity; _ } -> arity
    | _ -> assert false
  in
  let m = List.length luts in
  (* I: the attacker-accessible inputs driving the missing gates — the
     primary inputs and (scan-accessible) flip-flop outputs in the
     transitive fan-in cones of the LUTs.  Internal nets are not directly
     controllable, so they do not count. *)
  let accessible =
    Query.cone_inputs nl luts
    |> List.filter (fun id ->
           match Netlist.kind nl id with
           | Netlist.Pi | Netlist.Dff -> true
           | Netlist.Const _ | Netlist.Gate _ | Netlist.Lut _ -> false)
  in
  let i = List.length accessible in
  let total_config_bits =
    List.fold_left (fun acc id -> acc + (1 lsl arity_of id)) 0 luts
  in
  (* Eq. (1): sum over missing gates of alpha_i * D_i *)
  let n_indep =
    Lognum.sum
      (List.map
         (fun id ->
           Lognum.of_float
             (constants.alpha (arity_of id) *. float_of_int (depth_of id)))
         luts)
  in
  (* Eq. (2): product over missing gates of alpha_i * P_i * D_i *)
  let n_dep =
    Lognum.prod
      (List.map
         (fun id ->
           let a = arity_of id in
           Lognum.of_float
             (constants.alpha a *. constants.p a *. float_of_int (depth_of id)))
         luts)
  in
  (* Eq. (3): 2^I * P^M * D, with P and D as averages over the LUTs *)
  let avg f =
    List.fold_left (fun acc id -> acc +. f id) 0. luts /. float_of_int m
  in
  let p_avg = avg (fun id -> constants.p (arity_of id)) in
  let d_avg = avg (fun id -> float_of_int (depth_of id)) in
  let n_bf =
    Lognum.(
      pow (of_int 2) i
      * pow_float (of_float p_avg) (float_of_int m)
      * of_float (Float.max 1. d_avg))
  in
  let dependent_pairs = Query.connected_lut_pair_count nl luts in
  {
    missing_gates = m;
    accessible_inputs = i;
    total_config_bits;
    n_indep;
    n_dep;
    n_bf;
    dependent_pairs;
  }

let years_to_break ?(rate_hz = 1e9) clocks =
  Lognum.clocks_to_years ~rate_hz clocks

let pp_report fmt r =
  Format.fprintf fmt
    "security: M=%d, I=%d, %d config bits, %d dependent pairs@\n\
     N_indep=%a  N_dep=%a  N_bf=%a (test clocks)"
    r.missing_gates r.accessible_inputs r.total_config_bits r.dependent_pairs
    Lognum.pp r.n_indep Lognum.pp r.n_dep Lognum.pp r.n_bf
