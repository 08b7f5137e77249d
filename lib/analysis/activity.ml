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
  prog : Netlist.program;  (* what the sweeps ran over *)
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
  let prog = Netlist.program nl in
  let { Netlist.dst; first; fanin; dffs; d_inputs; _ } = prog in
  let prob =
    Array.init (Netlist.node_count nl) (fun id ->
        initial ~pi_probability (Netlist.kind nl id))
  in
  let tables = Array.map (fun id -> table (Netlist.kind nl id)) dst in
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
    prog;
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

let refine t nl ~changed =
  let module Metrics = Sttc_obs.Metrics in
  let full () =
    Metrics.incr "activity.refine.full";
    analyze nl
  in
  match Netlist.kind_delta t.netlist nl with
  | None -> full ()
  | Some _ when t.params <> defaults ->
      (* reusing the base replays the default fixpoint only *)
      full ()
  | Some delta ->
      let n = Array.length t.prob in
      let dirty = Array.make n false in
      let seeds = ref [] in
      List.iter
        (fun id ->
          if id < 0 || id >= n then
            invalid_arg "Activity.refine: node id out of range";
          if
            (not dirty.(id))
            && not (same_transfer (Netlist.kind t.netlist id) (Netlist.kind nl id))
          then begin
            dirty.(id) <- true;
            seeds := id :: !seeds
          end)
        (List.rev_append delta changed);
      if !seeds = [] then begin
        (* every transfer function is unchanged: the from-scratch fixpoint
           on [nl] retraces the base trajectory bit for bit *)
        Metrics.incr "activity.refine.cone";
        Metrics.observe "activity.refine.cone_nodes" 0.;
        { t with netlist = nl; prob = Array.copy t.prob }
      end
      else begin
        (* Forward cone of the dirty nodes (iterative; fanout caches of
           the base remain valid for [nl] per [kind_delta]).  The cone
           refine is exact only when the cone is sealed off from the
           sequential fixpoint: no cone node reads a flip-flop (the base's
           stored comb values were computed against pre-final-update DFF
           probabilities) and none feeds a flip-flop D input (which would
           alter the fixpoint trajectory itself). *)
        let in_cone = Array.make n false in
        let stack = Sttc_util.Growable.create () in
        let sealed = ref true in
        List.iter
          (fun id ->
            in_cone.(id) <- true;
            ignore (Sttc_util.Growable.push stack id))
          !seeds;
        let cone = ref 0 in
        while !sealed && not (Sttc_util.Growable.is_empty stack) do
          let id = Sttc_util.Growable.pop stack in
          incr cone;
          Array.iter
            (fun src ->
              match Netlist.kind nl src with
              | Netlist.Dff -> sealed := false
              | _ -> ())
            (Netlist.fanins nl id);
          List.iter
            (fun out ->
              match Netlist.kind nl out with
              | Netlist.Dff -> sealed := false
              | _ ->
                  if not in_cone.(out) then begin
                    in_cone.(out) <- true;
                    ignore (Sttc_util.Growable.push stack out)
                  end)
            (Netlist.fanouts nl id)
        done;
        if not !sealed then full ()
        else begin
          (* [kind_delta] keeps the base's program valid for [nl] *)
          let prob = Array.copy t.prob in
          let { Netlist.dst; first; fanin; _ } = t.prog in
          for i = 0 to Array.length dst - 1 do
            let d = dst.(i) in
            if in_cone.(d) then
              let kind = Netlist.kind nl d in
              match table kind with
              | Some bits ->
                  propagate prob fanin first.(i) first.(i + 1) bits
                    (Int64.to_int bits) d
              | None ->
                  prob.(d) <-
                    initial ~pi_probability:defaults.pi_probability kind
          done;
          Metrics.incr "activity.refine.cone";
          Metrics.observe "activity.refine.cone_nodes" (float_of_int !cone);
          { t with netlist = nl; prob }
        end
      end

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

