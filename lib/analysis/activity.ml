module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn

type params = {
  pi_probability : float;
  max_iterations : int;
  tolerance : float;
}

let defaults = { pi_probability = 0.5; max_iterations = 40; tolerance = 1e-4 }

type t = {
  netlist : Netlist.t;
  params : params;
  prob : float array;
}

(* The truth bits a node's probability is computed from.  A node without
   them keeps its initial probability: sources, constants and
   unconfigured LUTs. *)
let table = function
  | Netlist.Gate fn -> Some (Truth.bits (Gate_fn.truth fn))
  | Netlist.Lut { config = Some c; _ } -> Some (Truth.bits c)
  | Netlist.Lut { config = None; _ } | Netlist.Pi | Netlist.Const _
  | Netlist.Dff ->
      None

let initial ~pi_probability = function
  | Netlist.Pi -> pi_probability
  | Netlist.Const v -> if v then 1. else 0.
  | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dff -> 0.5

(* Exact probability of node [d] from its table over the inputs
   [fanin.(a)] .. [fanin.(b - 1)], assumed independent: the sum over the
   on-set rows, ascending from [0.], of the product over the inputs,
   ascending; then the clamp, as rounding across many rows can drift a
   hair outside [0,1].  Arities 1-4 read the on-set from [mask] (the
   table's bits as an int) and spell the rows out: each row's product is
   the loop's product without its leading [1. *.], which is exact, so the
   result is the loop's to the bit.  Wider tables run the row loop over
   [bits].  Reads and writes [prob] in place and allocates nothing. *)
let propagate prob fanin a b bits mask d =
  let total =
    match b - a with
    | 1 ->
        let x0 = prob.(fanin.(a)) in
        let c0 = 1. -. x0 in
        let t = 0. in
        let t = if mask land 1 <> 0 then t +. c0 else t in
        if mask land 2 <> 0 then t +. x0 else t
    | 2 ->
        let x0 = prob.(fanin.(a)) and x1 = prob.(fanin.(a + 1)) in
        let c0 = 1. -. x0 and c1 = 1. -. x1 in
        let t = 0. in
        let t = if mask land 1 <> 0 then t +. (c0 *. c1) else t in
        let t = if mask land 2 <> 0 then t +. (x0 *. c1) else t in
        let t = if mask land 4 <> 0 then t +. (c0 *. x1) else t in
        if mask land 8 <> 0 then t +. (x0 *. x1) else t
    | 3 ->
        let x0 = prob.(fanin.(a))
        and x1 = prob.(fanin.(a + 1))
        and x2 = prob.(fanin.(a + 2)) in
        let c0 = 1. -. x0 and c1 = 1. -. x1 and c2 = 1. -. x2 in
        let t = 0. in
        let t = if mask land 1 <> 0 then t +. (c0 *. c1 *. c2) else t in
        let t = if mask land 2 <> 0 then t +. (x0 *. c1 *. c2) else t in
        let t = if mask land 4 <> 0 then t +. (c0 *. x1 *. c2) else t in
        let t = if mask land 8 <> 0 then t +. (x0 *. x1 *. c2) else t in
        let t = if mask land 16 <> 0 then t +. (c0 *. c1 *. x2) else t in
        let t = if mask land 32 <> 0 then t +. (x0 *. c1 *. x2) else t in
        let t = if mask land 64 <> 0 then t +. (c0 *. x1 *. x2) else t in
        if mask land 128 <> 0 then t +. (x0 *. x1 *. x2) else t
    | 4 ->
        let x0 = prob.(fanin.(a))
        and x1 = prob.(fanin.(a + 1))
        and x2 = prob.(fanin.(a + 2))
        and x3 = prob.(fanin.(a + 3)) in
        let c0 = 1. -. x0 and c1 = 1. -. x1 in
        let c2 = 1. -. x2 and c3 = 1. -. x3 in
        let t = 0. in
        let t = if mask land 1 <> 0 then t +. (c0 *. c1 *. c2 *. c3) else t in
        let t = if mask land 2 <> 0 then t +. (x0 *. c1 *. c2 *. c3) else t in
        let t = if mask land 4 <> 0 then t +. (c0 *. x1 *. c2 *. c3) else t in
        let t = if mask land 8 <> 0 then t +. (x0 *. x1 *. c2 *. c3) else t in
        let t = if mask land 16 <> 0 then t +. (c0 *. c1 *. x2 *. c3) else t in
        let t = if mask land 32 <> 0 then t +. (x0 *. c1 *. x2 *. c3) else t in
        let t = if mask land 64 <> 0 then t +. (c0 *. x1 *. x2 *. c3) else t in
        let t = if mask land 128 <> 0 then t +. (x0 *. x1 *. x2 *. c3) else t in
        let t = if mask land 256 <> 0 then t +. (c0 *. c1 *. c2 *. x3) else t in
        let t = if mask land 512 <> 0 then t +. (x0 *. c1 *. c2 *. x3) else t in
        let t = if mask land 1024 <> 0 then t +. (c0 *. x1 *. c2 *. x3) else t in
        let t = if mask land 2048 <> 0 then t +. (x0 *. x1 *. c2 *. x3) else t in
        let t = if mask land 4096 <> 0 then t +. (c0 *. c1 *. x2 *. x3) else t in
        let t = if mask land 8192 <> 0 then t +. (x0 *. c1 *. x2 *. x3) else t in
        let t = if mask land 16384 <> 0 then t +. (c0 *. x1 *. x2 *. x3) else t in
        if mask land 32768 <> 0 then t +. (x0 *. x1 *. x2 *. x3) else t
    | _ ->
        let total = ref 0. in
        for r = 0 to (1 lsl (b - a)) - 1 do
          if Int64.logand (Int64.shift_right_logical bits r) 1L = 1L then begin
            let p = ref 1. in
            for k = a to b - 1 do
              let pk = prob.(fanin.(k)) in
              p := !p *. (if (r lsr (k - a)) land 1 = 1 then pk else 1. -. pk)
            done;
            total := !total +. !p
          end
        done;
        !total
  in
  (* [Float.min 1. (Float.max 0. total)], spelt out as the comparisons
     those two make against 1. and 0. (NaN passes, -0. becomes 0.): the
     same value for every float, without their two [sign_bit] calls *)
  prob.(d) <-
    (if total > 0. then if total > 1. then 1. else total
     else if Float.is_nan total then total
     else 0.)

let analyze ?(pi_probability = defaults.pi_probability)
    ?(max_iterations = defaults.max_iterations)
    ?(tolerance = defaults.tolerance) nl =
  if not (0. <= pi_probability && pi_probability <= 1.) then
    invalid_arg "Activity.analyze: pi_probability";
  let { Netlist.dst; first; fanin; dffs; d_inputs; _ } = Netlist.program nl in
  let prob =
    Array.init (Netlist.node_count nl) (fun id ->
        initial ~pi_probability (Netlist.kind nl id))
  in
  (* filled from [None], not built by [Array.map]: a young [Some] as the
     initial value of a long array forces a minor collection *)
  let tables = Array.make (Array.length dst) None in
  Array.iteri (fun i id -> tables.(i) <- table (Netlist.kind nl id)) dst;
  let masks =
    Array.map (function Some bits -> Int64.to_int bits | None -> 0) tables
  in
  let propagate_comb () =
    for i = 0 to Array.length dst - 1 do
      match tables.(i) with
      | Some bits ->
          propagate prob fanin first.(i) first.(i + 1) bits masks.(i) dst.(i)
      | None -> ()
    done
  in
  let rec iterate k =
    propagate_comb ();
    let delta = ref 0. in
    for j = 0 to Array.length dffs - 1 do
      let ff = dffs.(j) in
      let next = prob.(d_inputs.(j)) in
      delta := Float.max !delta (Float.abs (next -. prob.(ff)));
      prob.(ff) <- next
    done;
    if !delta > tolerance && k < max_iterations then iterate (k + 1)
  in
  if Array.length dffs = 0 then propagate_comb () else iterate 1;
  {
    netlist = nl;
    params = { pi_probability; max_iterations; tolerance };
    prob;
  }

(* True when two kinds denote the same probability transfer function, so
   swapping one for the other cannot change any computed probability.
   Gate→configured-LUT replacements that keep the function (the protect
   flow's default) land in the [Truth.equal] cases. *)
let same_transfer ka kb =
  ka == kb
  ||
  match (ka, kb) with
  | Netlist.Gate fa, Netlist.Gate fb -> fa = fb
  | Netlist.Lut { config = Some a; _ }, Netlist.Lut { config = Some b; _ } ->
      Truth.equal a b
  | Netlist.Lut { config = None; _ }, Netlist.Lut { config = None; _ } -> true
  | Netlist.Gate f, Netlist.Lut { config = Some c; _ }
  | Netlist.Lut { config = Some c; _ }, Netlist.Gate f ->
      Truth.equal (Gate_fn.truth f) c
  | Netlist.Pi, Netlist.Pi | Netlist.Dff, Netlist.Dff -> true
  | Netlist.Const a, Netlist.Const b -> a = b
  | _ -> false

(* The base solution is [nl]'s when every changed node keeps its
   transfer function: the from-scratch fixpoint on [nl] then retraces the
   base trajectory bit for bit.  A changed function moves the sequential
   fixpoint in general, so any other delta runs it again. *)
let refine t nl =
  let module Metrics = Sttc_obs.Metrics in
  match Netlist.kind_delta t.netlist nl with
  | Some delta
    when t.params = defaults
         && List.for_all
              (fun id ->
                same_transfer (Netlist.kind t.netlist id) (Netlist.kind nl id))
              delta ->
      Metrics.incr "activity.refine.cone";
      { t with netlist = nl; prob = Array.copy t.prob }
  | Some _ | None ->
      Metrics.incr "activity.refine.full";
      analyze nl

let probability t id =
  if id < 0 || id >= Array.length t.prob then invalid_arg "Activity.probability";
  t.prob.(id)

(* Standard temporal-independence toggle estimate. *)
let switching t id =
  let p = probability t id in
  2. *. p *. (1. -. p)

(* Summed over descending ids: the mean's low bits depend on the order. *)
let average_switching t =
  let sum = ref 0. and count = ref 0 in
  for id = Array.length t.prob - 1 downto 0 do
    if Netlist.is_combinational (Netlist.kind t.netlist id) then begin
      sum := !sum +. switching t id;
      incr count
    end
  done;
  if !count = 0 then 0. else !sum /. float_of_int !count

