module Rng = Sttc_util.Rng

type spec = {
  design_name : string;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  levels : int;
}

let validate spec =
  if spec.n_pi < 1 then invalid_arg "Generator: n_pi >= 1 required";
  if spec.n_po < 1 then invalid_arg "Generator: n_po >= 1 required";
  if spec.n_ff < 0 then invalid_arg "Generator: n_ff >= 0 required";
  if spec.n_gates < 1 then invalid_arg "Generator: n_gates >= 1 required";
  if spec.levels < 1 then invalid_arg "Generator: levels >= 1 required"

(* Fan-in distribution loosely matching synthesized standard-cell netlists:
   mostly 2-input cells, a tail of 3/4-input, some inverters/buffers. *)
let pick_arity rng =
  let r = Rng.int rng 100 in
  if r < 12 then 1 else if r < 70 then 2 else if r < 88 then 3 else 4

let pick_fn rng arity =
  if arity = 1 then if Rng.int rng 100 < 80 then Sttc_logic.Gate_fn.Not
    else Sttc_logic.Gate_fn.Buf
  else
    let r = Rng.int rng 100 in
    if r < 25 then Sttc_logic.Gate_fn.Nand arity
    else if r < 45 then Sttc_logic.Gate_fn.Nor arity
    else if r < 65 then Sttc_logic.Gate_fn.And arity
    else if r < 82 then Sttc_logic.Gate_fn.Or arity
    else if r < 92 then Sttc_logic.Gate_fn.Xor arity
    else Sttc_logic.Gate_fn.Xnor arity

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

(* [prefix ^ string_of_int i] for [i >= 0], written in one allocation *)
let numbered prefix i =
  let p = String.length prefix in
  let len = p + digits i in
  let s = Bytes.create len in
  for k = 0 to p - 1 do
    Bytes.unsafe_set s k (String.unsafe_get prefix k)
  done;
  let r = ref i in
  for k = len - 1 downto p do
    Bytes.set s k (Char.unsafe_chr (48 + (!r mod 10)));
    r := !r / 10
  done;
  Bytes.unsafe_to_string s

(* whether [c] is among [fanins.(0 .. n - 1)] *)
let rec among_first fanins n c =
  n > 0 && (fanins.(n - 1) = c || among_first fanins (n - 1) c)

(* [hub_bias = Some pct] redirects [pct]% of non-level-pinning fanin draws
   to a small fixed pool of level-0 "hub" signals (clock enables, resets —
   the high-fanout nets of real netlists).  [None] performs no extra RNG
   draws, so circuits generated before this parameter existed are
   bit-identical.

   Node ids are dense in creation order: the PIs, then the flip-flops
   (level 0), then each level's gates in turn.  Every pool a draw reads is
   therefore an id range [lo, lo + len), and [lo + Rng.int rng len] is the
   draw [Rng.pick] makes on the array of those ids. *)
let generate_internal ?hub_bias ~seed spec =
  validate spec;
  let rng = Rng.make (seed lxor Hashtbl.hash spec.design_name) in
  let b = Netlist.Builder.create ~design_name:spec.design_name () in
  for i = 0 to spec.n_pi - 1 do
    ignore (Netlist.Builder.add_pi b (numbered "pi" i))
  done;
  for i = 0 to spec.n_ff - 1 do
    ignore (Netlist.Builder.add_dff_deferred b (numbered "ff" i))
  done;
  let first_ff = spec.n_pi and n_level0 = spec.n_pi + spec.n_ff in
  let levels = max 1 spec.levels in
  (* Distribute gates over levels 1..levels, at least one per level while
     the budget lasts. *)
  let per_level = Array.make (levels + 1) 0 in
  per_level.(0) <- n_level0;
  let remaining = ref spec.n_gates in
  for l = 1 to levels do
    if !remaining > 0 then begin
      per_level.(l) <- 1;
      decr remaining
    end
  done;
  while !remaining > 0 do
    (* Bias towards shallow levels (min of two uniform draws): real
       synthesized circuits are wide near the inputs and narrow at the
       deepest logic levels, leaving only a few near-critical paths. *)
    let x = Rng.int rng levels and y = Rng.int rng levels in
    let l = 1 + if x < y then x else y in
    per_level.(l) <- per_level.(l) + 1;
    decr remaining
  done;
  (* level l holds the ids [start.(l), start.(l + 1)); start.(levels + 1)
     is the node count *)
  let start = Array.make (levels + 2) 0 in
  for l = 0 to levels do
    start.(l + 1) <- start.(l) + per_level.(l)
  done;
  let n_nodes = start.(levels + 1) in
  (* Drawing below [start.(l)] while level [l] is built reads only
     signals of strictly earlier levels, so every fanin draw keeps the
     levelized depth bound intact. *)
  let pick_prior l = Rng.int rng start.(l) in
  let pick_level l level =
    if per_level.(level) > 0 then start.(level) + Rng.int rng per_level.(level)
    else pick_prior l
  in
  (* consumed.[id] <> '\000' once some gate reads node [id] *)
  let consumed = Bytes.make n_nodes '\000' in
  (* the hubs are the first (at most 64) level-0 ids *)
  let hubs =
    match hub_bias with
    | None -> None
    | Some pct -> Some (pct, min 64 n_level0)
  in
  (* the fanins of the gate being built (arity <= 4) *)
  let fanins = Array.make 4 0 in
  let gate_count = ref 0 in
  for l = 1 to levels do
    for _ = 1 to per_level.(l) do
      let arity = pick_arity rng in
      let fn = pick_fn rng arity in
      (* first fanin from level l-1 (pins this gate's level); fall back to
         any earlier level when l-1 is empty *)
      fanins.(0) <- pick_level l (l - 1);
      for k = 1 to arity - 1 do
        fanins.(k) <-
          (match hubs with
          | Some (pct, n_hubs) when Rng.int rng 100 < pct -> Rng.int rng n_hubs
          | _ ->
              (* bias towards recent levels for locality, fall back
                 uniform *)
              pick_level l
                (if Rng.int rng 100 < 60 then l - 1 else Rng.int rng l))
      done;
      (* gates must have distinct fanins to be meaningful; retry duplicates
         cheaply by drawing from the global pool *)
      for k = 1 to arity - 1 do
        let attempts = ref 0 in
        while among_first fanins k fanins.(k) && !attempts < 10 do
          fanins.(k) <- pick_prior l;
          incr attempts
        done
      done;
      (* degenerate duplicates may survive in tiny circuits: sort the
         fanins in place (insertion sort, arity <= 4) and drop repeats *)
      for k = 1 to arity - 1 do
        let v = fanins.(k) in
        let j = ref (k - 1) in
        while !j >= 0 && fanins.(!j) > v do
          fanins.(!j + 1) <- fanins.(!j);
          decr j
        done;
        fanins.(!j + 1) <- v
      done;
      let distinct = ref 0 in
      for k = 0 to arity - 1 do
        let v = fanins.(k) in
        Bytes.set consumed v '\001';
        if !distinct = 0 || fanins.(!distinct - 1) <> v then begin
          fanins.(!distinct) <- v;
          incr distinct
        end
      done;
      let arity = !distinct in
      let fn =
        if arity = 1 then
          (match fn with
          | Sttc_logic.Gate_fn.Buf | Sttc_logic.Gate_fn.Not -> fn
          | Sttc_logic.Gate_fn.Nand _ | Sttc_logic.Gate_fn.Nor _
          | Sttc_logic.Gate_fn.Xnor _ ->
              Sttc_logic.Gate_fn.Not
          | Sttc_logic.Gate_fn.And _ | Sttc_logic.Gate_fn.Or _
          | Sttc_logic.Gate_fn.Xor _ ->
              Sttc_logic.Gate_fn.Buf)
        else if Sttc_logic.Gate_fn.arity fn = arity then fn
        else
          match fn with
          | Sttc_logic.Gate_fn.Buf | Sttc_logic.Gate_fn.Not -> fn
          | Sttc_logic.Gate_fn.And _ -> Sttc_logic.Gate_fn.And arity
          | Sttc_logic.Gate_fn.Nand _ -> Sttc_logic.Gate_fn.Nand arity
          | Sttc_logic.Gate_fn.Or _ -> Sttc_logic.Gate_fn.Or arity
          | Sttc_logic.Gate_fn.Nor _ -> Sttc_logic.Gate_fn.Nor arity
          | Sttc_logic.Gate_fn.Xor _ -> Sttc_logic.Gate_fn.Xor arity
          | Sttc_logic.Gate_fn.Xnor _ -> Sttc_logic.Gate_fn.Xnor arity
      in
      let fanins =
        match arity with
        | 1 -> [| fanins.(0) |]
        | 2 -> [| fanins.(0); fanins.(1) |]
        | 3 -> [| fanins.(0); fanins.(1); fanins.(2) |]
        | _ -> [| fanins.(0); fanins.(1); fanins.(2); fanins.(3) |]
      in
      ignore (Netlist.Builder.add_gate b (numbered "g" !gate_count) fn fanins);
      incr gate_count
    done
  done;
  (* Sinks: FF inputs and POs.  First consume gates that no other gate
     reads (they would otherwise dangle), deepest level first; then fall
     back to random late-level gates. *)
  let dangling = Sttc_util.Growable.create () in
  for l = levels downto 1 do
    for id = start.(l) to start.(l + 1) - 1 do
      if Bytes.get consumed id = '\000' then
        ignore (Sttc_util.Growable.push dangling id)
    done
  done;
  (* the gates of the later half of the levels, or every node when those
     levels are empty *)
  let late_lo =
    let lo = start.(max 1 (levels / 2)) in
    if lo < n_nodes then lo else 0
  in
  let dangle_pos = ref 0 in
  let next_sink () =
    if !dangle_pos < Sttc_util.Growable.length dangling then begin
      let id = Sttc_util.Growable.get dangling !dangle_pos in
      incr dangle_pos;
      id
    end
    else late_lo + Rng.int rng (n_nodes - late_lo)
  in
  (* Flip-flops split between short-hop state chains (D driven from a
     shallow level, as in counters and shift registers) and deep datapath
     capture; without the short hops every FF-to-FF segment would span the
     whole combinational depth, which real circuits do not do.  The
     shallow pool is the gates of levels 1..3, or the late pool when those
     levels are empty. *)
  let shallow_lo, shallow_len =
    let hi = start.(max 1 (min levels 3) + 1) in
    if hi > start.(1) then (start.(1), hi - start.(1))
    else (late_lo, n_nodes - late_lo)
  in
  for ff = first_ff to first_ff + spec.n_ff - 1 do
    (* Short-hop FFs draw straight from the shallow pool (bypassing the
       dangling queue, which is dominated by deep gates). *)
    let d =
      if Rng.int rng 100 < 55 then shallow_lo + Rng.int rng shallow_len
      else next_sink ()
    in
    Netlist.Builder.set_dff_input b ff d
  done;
  for i = 0 to spec.n_po - 1 do
    Netlist.Builder.add_output b (numbered "po" i) (next_sink ())
  done;
  Netlist.Builder.finalize b

let generate ~seed spec = generate_internal ~seed spec

(* ---------- parameterized scale families ---------- *)

type profile = Slike | Wide | Deep | Fanout_heavy

let profile_name = function
  | Slike -> "slike"
  | Wide -> "wide"
  | Deep -> "deep"
  | Fanout_heavy -> "fanout"

let profile_of_string = function
  | "slike" | "s-like" -> Ok Slike
  | "wide" -> Ok Wide
  | "deep" -> Ok Deep
  | "fanout" | "fanout-heavy" -> Ok Fanout_heavy
  | s -> Error (Printf.sprintf "unknown profile %S (slike|wide|deep|fanout)" s)

let ilog2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 (max 1 n)

let family_spec ?(profile = Slike) ~gates () =
  if gates < 8 then invalid_arg "Generator.family_spec: gates >= 8 required";
  let b = ilog2 gates in
  let design_name = Printf.sprintf "%s%d" (profile_name profile) gates in
  match profile with
  | Slike | Fanout_heavy ->
      (* ISCAS'89-like interface/state ratios, depth growing with log size
         (s1238: 14 PI / 14 PO / 18 FF / 529 gates, depth ~20) *)
      {
        design_name;
        n_pi = max 8 (gates / 40);
        n_po = max 8 (gates / 40);
        n_ff = max 4 (gates / 30);
        n_gates = gates;
        levels = max 8 (2 * b);
      }
  | Wide ->
      (* shallow and wide: datapath-like, huge levels, few state bits *)
      {
        design_name;
        n_pi = max 16 (gates / 12);
        n_po = max 16 (gates / 25);
        n_ff = max 4 (gates / 50);
        n_gates = gates;
        levels = max 4 (b / 2);
      }
  | Deep ->
      (* long combinational chains: levels grow near-linearly in log size
         with a floor that keeps at least ~6 gates per level *)
      {
        design_name;
        n_pi = max 8 (gates / 200);
        n_po = max 8 (gates / 200);
        n_ff = max 2 (gates / 400);
        n_gates = gates;
        levels = max 24 (min (gates / 6) (25 * b));
      }

let generate_family ~seed ?(profile = Slike) ~gates () =
  let spec = family_spec ~profile ~gates () in
  let hub_bias = match profile with Fanout_heavy -> Some 30 | _ -> None in
  generate_internal ?hub_bias ~seed spec
