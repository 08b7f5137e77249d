module Netlist = Sttc_netlist.Netlist
module Query = Sttc_netlist.Query
module Ternary = Sttc_logic.Ternary
module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn
module Rng = Sttc_util.Rng
module Simulator = Sttc_sim.Simulator

let infinite = 1_000_000

type t = {
  const : Ternary.v array;
  tainted : bool array;
  stuck : Ternary.v array;
  signature : int array;
  cc0 : int array;
  cc1 : int array;
  co : int array;
  live : bool array;
  summary : Query.cone_summary;
  seq_depth : int array;
}

(* saturating arithmetic in the SCOAP cost domain *)
let ( +! ) a b = if a >= infinite || b >= infinite then infinite else a + b
let sat v = if v >= infinite then infinite else v

(* ---------- LUT taint: combinationally downstream of a missing gate *)

let compute_taint nl order =
  let taint = Array.make (Netlist.node_count nl) false in
  Array.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Lut { config = None; _ } -> taint.(id) <- true
      | k when Netlist.is_combinational k ->
          taint.(id) <-
            Array.exists (fun s -> taint.(s)) (Netlist.fanins nl id)
      | _ -> ())
    order;
  taint

(* ---------- SCOAP controllability / observability ---------- *)

(* Standard SCOAP cost recurrences, with two three-valued twists: an
   unconfigured LUT's output is uncontrollable (the attacker cannot set
   a value they do not know), and observability through an unconfigured
   LUT is blocked — both sides of the Eq. 1 independence question. *)
let compute_scoap nl order =
  let n = Netlist.node_count nl in
  let cc0 = Array.make n infinite and cc1 = Array.make n infinite in
  let pair id = (cc0.(id), cc1.(id)) in
  (* running (cost of 0, cost of 1) over a parity chain *)
  let xor_fold pairs =
    match Array.length pairs with
    | 0 -> (infinite, infinite)
    | _ ->
        let c0 = ref (fst pairs.(0)) and c1 = ref (snd pairs.(0)) in
        for k = 1 to Array.length pairs - 1 do
          let d0, d1 = pairs.(k) in
          let n0 = min (!c0 +! d0) (!c1 +! d1)
          and n1 = min (!c0 +! d1) (!c1 +! d0) in
          c0 := n0;
          c1 := n1
        done;
        (!c0, !c1)
  in
  Array.iter
    (fun id ->
      let node = Netlist.node nl id in
      let fp () = Array.map pair node.Netlist.fanins in
      let set (a, b) =
        cc0.(id) <- sat (a +! 1);
        cc1.(id) <- sat (b +! 1)
      in
      match node.Netlist.kind with
      | Netlist.Pi | Netlist.Dff ->
          cc0.(id) <- 1;
          cc1.(id) <- 1
      | Netlist.Const b ->
          if b then cc1.(id) <- 1 else cc0.(id) <- 1
      | Netlist.Gate fn -> (
          let ps = fp () in
          let sum sel = Array.fold_left (fun acc p -> acc +! sel p) 0 ps in
          let mn sel =
            Array.fold_left (fun acc p -> min acc (sel p)) infinite ps
          in
          match fn with
          | Gate_fn.Buf -> set (fst ps.(0), snd ps.(0))
          | Gate_fn.Not -> set (snd ps.(0), fst ps.(0))
          | Gate_fn.And _ -> set (mn fst, sum snd)
          | Gate_fn.Nand _ -> set (sum snd, mn fst)
          | Gate_fn.Or _ -> set (sum fst, mn snd)
          | Gate_fn.Nor _ -> set (mn snd, sum fst)
          | Gate_fn.Xor _ -> set (xor_fold ps)
          | Gate_fn.Xnor _ ->
              let a, b = xor_fold ps in
              set (b, a))
      | Netlist.Lut { config = Some c; arity } ->
          (* cost of a row is the sum of controlling each input to the
             row's bit; the table's cheapest 0-row / 1-row wins *)
          let ps = fp () in
          let best0 = ref infinite and best1 = ref infinite in
          for r = 0 to (1 lsl arity) - 1 do
            let cost = ref 0 in
            for k = 0 to arity - 1 do
              let c0, c1 = ps.(k) in
              cost := !cost +! (if (r lsr k) land 1 = 1 then c1 else c0)
            done;
            if Truth.row c r then best1 := min !best1 !cost
            else best0 := min !best0 !cost
          done;
          set (!best0, !best1)
      | Netlist.Lut { config = None; _ } -> ())
    order;
  (* observability: reverse pass from the observation points *)
  let co = Array.make n infinite in
  List.iter (fun id -> co.(id) <- 0) (Netlist.pos nl);
  List.iter
    (fun ff ->
      let d = (Netlist.fanins nl ff).(0) in
      co.(d) <- 0)
    (Netlist.dffs nl);
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    List.iter
      (fun reader ->
        let node = Netlist.node nl reader in
        let through =
          match node.Netlist.kind with
          | Netlist.Dff -> Some 0 (* the D input is an observation point *)
          | Netlist.Gate fn ->
              let side sel =
                Array.fold_left
                  (fun acc s -> if s = id then acc else acc +! sel (pair s))
                  0 node.Netlist.fanins
              in
              let cost =
                match fn with
                | Gate_fn.Buf | Gate_fn.Not -> 0
                | Gate_fn.And _ | Gate_fn.Nand _ -> side snd
                | Gate_fn.Or _ | Gate_fn.Nor _ -> side fst
                | Gate_fn.Xor _ | Gate_fn.Xnor _ ->
                    side (fun (a, b) -> min a b)
              in
              Some (co.(reader) +! cost +! 1)
          | Netlist.Lut { config = Some c; _ } ->
              let depends = ref false in
              Array.iteri
                (fun k s -> if s = id && Truth.depends_on c k then depends := true)
                node.Netlist.fanins;
              if not !depends then None
              else
                let cost =
                  Array.fold_left
                    (fun acc s ->
                      if s = id then acc
                      else
                        let c0, c1 = pair s in
                        acc +! min c0 c1)
                    0 node.Netlist.fanins
                in
                Some (co.(reader) +! cost +! 1)
          | Netlist.Lut { config = None; _ } ->
              None (* X blocks: propagation would need the missing table *)
          | _ -> None
        in
        match through with
        | Some cost ->
            let cost = if cost = 0 && co.(id) = 0 then 0 else cost in
            co.(id) <- min co.(id) (sat cost)
        | None -> ())
      (Netlist.fanouts nl id)
  done;
  (cc0, cc1, co)

(* ---------- liveness: can the node's value ever matter? ---------- *)

(* Backward "transparency" analysis.  An edge from [src] into a reader
   transmits unless a sibling input is a propagated constant that forces
   the reader's output (0 on an AND, 1 on an OR, ...) or the reader is a
   configured LUT that provably ignores the position.  Unconfigured LUTs
   are treated as transparent: the missing table could be anything, so
   deadness through them is never claimed. *)
let compute_live nl order const =
  let n = Netlist.node_count nl in
  let live = Array.make n false in
  let is_po = Array.make n false in
  List.iter (fun id -> is_po.(id) <- true) (Netlist.pos nl);
  let transmits reader src =
    let node = Netlist.node nl reader in
    match node.Netlist.kind with
    | Netlist.Dff -> true
    | Netlist.Gate fn -> (
        let blocked v =
          Array.exists
            (fun s -> s <> src && Ternary.equal const.(s) v)
            node.Netlist.fanins
        in
        match fn with
        | Gate_fn.Buf | Gate_fn.Not -> true
        | Gate_fn.And _ | Gate_fn.Nand _ -> not (blocked Ternary.Zero)
        | Gate_fn.Or _ | Gate_fn.Nor _ -> not (blocked Ternary.One)
        | Gate_fn.Xor _ | Gate_fn.Xnor _ -> true)
    | Netlist.Lut { config = Some c; _ } ->
        let depends = ref false in
        Array.iteri
          (fun k s -> if s = src && Truth.depends_on c k then depends := true)
          node.Netlist.fanins;
        !depends
    | Netlist.Lut { config = None; _ } -> true
    | _ -> false
  in
  (* fixpoint: one reverse-topological sweep settles the combinational
     part; repeating until stable lets liveness cross flip-flop
     boundaries (a DFF is live only if its output is) *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = Array.length order - 1 downto 0 do
      let id = order.(i) in
      if not live.(id) then begin
        let now =
          is_po.(id)
          || List.exists
               (fun reader -> live.(reader) && transmits reader id)
               (Netlist.fanouts nl id)
        in
        if now then begin
          live.(id) <- true;
          changed := true
        end
      end
    done
  done;
  live

(* ---------- entry point ---------- *)

let max_patterns = 30 (* 2 bits per pattern must fit an OCaml int *)

(* lane [lane] of a node after a ternary evaluation *)
let lane_value sim id lane =
  let bit w = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
  if bit (Simulator.ones sim id) then Ternary.One
  else if bit (Simulator.zeros sim id) then Ternary.Zero
  else Ternary.X

let compute ?(patterns = 24) ?(seed = 0xda7a) nl =
  let patterns = max 1 (min patterns max_patterns) in
  Netlist.warm nl;
  let order = Netlist.topo_order nl in
  let n = Netlist.node_count nl in
  let sim = Simulator.create_ternary nl in
  let pis = Netlist.pis nl and dffs = Netlist.dffs nl in
  (* constant propagation: every source unknown *)
  let unknown ids = Array.make (List.length ids) 0L in
  Simulator.set_state_rails sim ~ones:(unknown dffs) ~zeros:(unknown dffs);
  Simulator.eval_rails sim ~ones:(unknown pis) ~zeros:(unknown pis);
  let const = Array.init n (fun id -> lane_value sim id 0) in
  let tainted = compute_taint nl order in
  (* random known-source sampling, one pattern per lane: signatures and
     stuck-at candidates.  Bits are drawn pattern by pattern, sources in
     topological order. *)
  let rng = Rng.make seed in
  let lanes = Array.make n 0L in
  for p = 0 to patterns - 1 do
    Array.iter
      (fun id ->
        match Netlist.kind nl id with
        | Netlist.Pi | Netlist.Dff ->
            if Rng.bool rng then
              lanes.(id) <- Int64.logor lanes.(id) (Int64.shift_left 1L p)
        | _ -> ())
      order
  done;
  let lanes_of ids = Array.of_list (List.map (fun id -> lanes.(id)) ids) in
  Simulator.set_state sim (lanes_of dffs);
  ignore (Simulator.eval_comb sim (lanes_of pis));
  let used = Int64.pred (Int64.shift_left 1L patterns) in
  let signature = Array.make n 0 in
  let stuck = Array.make n Ternary.X in
  for id = 0 to n - 1 do
    for p = 0 to patterns - 1 do
      let code =
        match lane_value sim id p with
        | Ternary.Zero -> 1
        | Ternary.One -> 2
        | Ternary.X -> 3
      in
      signature.(id) <- signature.(id) lor (code lsl (2 * p))
    done;
    (* a stuck-at candidate is the same known value in every sample *)
    if Int64.logand (Simulator.ones sim id) used = used then
      stuck.(id) <- Ternary.One
    else if Int64.logand (Simulator.zeros sim id) used = used then
      stuck.(id) <- Ternary.Zero
  done;
  let cc0, cc1, co = compute_scoap nl order in
  let live = compute_live nl order const in
  let summary = Query.cone_summary nl in
  let seq_depth = Query.sequential_depth_to_po nl in
  {
    const;
    tainted;
    stuck;
    signature;
    cc0;
    cc1;
    co;
    live;
    summary;
    seq_depth;
  }

let const t id = t.const.(id)
let tainted t id = t.tainted.(id)
let stuck t id = t.stuck.(id)
let signature t id = t.signature.(id)
let cc0 t id = t.cc0.(id)
let cc1 t id = t.cc1.(id)
let co t id = t.co.(id)
let live t id = t.live.(id)
let summary t = t.summary
let seq_depth t id = t.seq_depth.(id)
