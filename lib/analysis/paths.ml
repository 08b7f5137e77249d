module Netlist = Sttc_netlist.Netlist
module Rng = Sttc_util.Rng

type io_path = {
  nodes : Netlist.node_id list;
  ff_count : int;
}

type segment = {
  gates : Netlist.node_id list;
  launches_at_ff : bool;
  captures_at_ff : bool;
}

(* The state every walk of one [sample] shares.  A node is visited by
   the current walk iff its stamp equals the walk's generation, so
   starting a walk is one increment, not a fresh table.  A walk records
   its nodes in [back] or [fwd], start first; it visits each node at
   most once, so [n] slots hold it.  A path's list is built only when it
   beats the best of its attempts. *)
type walker = {
  po_driver : bool array;
  stamp : int array;
  mutable gen : int;
  back : Netlist.node_id array;
  mutable back_len : int;
  fwd : Netlist.node_id array;
  mutable fwd_len : int;
}

let walker nl =
  let n = Netlist.node_count nl in
  let po_driver = Array.make n false in
  Array.iter (fun (_, id) -> po_driver.(id) <- true) (Netlist.outputs nl);
  {
    po_driver;
    stamp = Array.make n 0;
    gen = 0;
    back = Array.make n 0;
    back_len = 0;
    fwd = Array.make n 0;
    fwd_len = 0;
  }

(* Marks [id] visited; false when the current walk has been there. *)
let first_visit w id =
  w.stamp.(id) <> w.gen
  && begin
    w.stamp.(id) <- w.gen;
    true
  end

let rec back_from ~rng w nl id =
  first_visit w id
  && begin
    w.back.(w.back_len) <- id;
    w.back_len <- w.back_len + 1;
    let node = Netlist.node nl id in
    match node.Netlist.kind with
    | Netlist.Pi -> true
    | Netlist.Const _ -> false
    | Netlist.Gate _ | Netlist.Lut _ | Netlist.Dff ->
        let fanins = node.Netlist.fanins in
        Array.length fanins > 0 && back_from ~rng w nl (Rng.pick rng fanins)
  end

let rec fwd_from ~rng w nl id =
  first_visit w id
  && begin
    w.fwd.(w.fwd_len) <- id;
    w.fwd_len <- w.fwd_len + 1;
    w.po_driver.(id)
    ||
    match Netlist.fanouts nl id with
    | [] -> false
    | outs -> fwd_from ~rng w nl (Rng.pick_list rng outs)
  end

(* Random backward walk from [start] to a primary input into [w.back]
   (start..PI).  Walks through flip-flops (sequential edges), failing on
   revisits to avoid looping in FF cycles. *)
let walk_back ~rng w nl start =
  w.gen <- w.gen + 1;
  w.back_len <- 0;
  back_from ~rng w nl start

(* Random forward walk from [start] to a primary-output driver into
   [w.fwd] (start..PO driver). *)
let walk_fwd ~rng w nl start =
  w.gen <- w.gen + 1;
  w.fwd_len <- 0;
  fwd_from ~rng w nl start

let is_dff nl id = match Netlist.kind nl id with Netlist.Dff -> true | _ -> false

(* The walked path PI..start..PO driver: [back] reversed, then [fwd]
   past its start. *)
let path_nodes w =
  let nodes = ref [] in
  for j = w.fwd_len - 1 downto 1 do
    nodes := w.fwd.(j) :: !nodes
  done;
  for j = 0 to w.back_len - 1 do
    nodes := w.back.(j) :: !nodes
  done;
  !nodes

let path_ffs w nl =
  let ffs = ref 0 in
  for j = 0 to w.back_len - 1 do
    if is_dff nl w.back.(j) then incr ffs
  done;
  for j = 1 to w.fwd_len - 1 do
    if is_dff nl w.fwd.(j) then incr ffs
  done;
  !ffs

(* [w] is hoisted to the caller: it is O(nodes) to build, and [sample]
   calls this once per sampled component — paying that per call made
   sampling quadratic on the 10^5..10^6-gate scale families. *)
let find_io_path ~rng w nl start =
  (* Several random walks; keep the flip-flop-richest path found, since the
     selection procedure wants paths "containing at least two flip-flops". *)
  let attempts = 8 in
  let best = ref None in
  for _ = 1 to attempts do
    if walk_back ~rng w nl start && walk_fwd ~rng w nl start then begin
      let ff_count = path_ffs w nl in
      match !best with
      | Some b when b.ff_count >= ff_count -> ()
      | _ -> best := Some { nodes = path_nodes w; ff_count }
    end
  done;
  !best

(* Paths keyed by their node lists. *)
module Path_table = Hashtbl.Make (struct
  type t = Netlist.node_id list

  let equal = List.equal Int.equal
  let hash = List.fold_left (fun h id -> (h * 31) + id) (-1)
end)

let sample ~rng ?(fraction = 0.02) ?(exclude_critical = []) nl =
  if not (0. < fraction && fraction <= 1.) then
    invalid_arg "Paths.sample: fraction";
  (* the gates, then the LUTs, each in id order *)
  let components =
    let n = Netlist.node_count nl in
    let gates = ref 0 and luts = ref 0 in
    for id = 0 to n - 1 do
      match Netlist.kind nl id with
      | Netlist.Gate _ -> incr gates
      | Netlist.Lut _ -> incr luts
      | Netlist.Pi | Netlist.Const _ | Netlist.Dff -> ()
    done;
    let ids = Array.make (!gates + !luts) 0 in
    let g = ref 0 and l = ref !gates in
    for id = 0 to n - 1 do
      match Netlist.kind nl id with
      | Netlist.Gate _ ->
          ids.(!g) <- id;
          incr g
      | Netlist.Lut _ ->
          ids.(!l) <- id;
          incr l
      | Netlist.Pi | Netlist.Const _ | Netlist.Dff -> ()
    done;
    ids
  in
  if Array.length components = 0 then []
  else begin
    let count =
      max 8 (int_of_float (fraction *. float_of_int (Array.length components)))
    in
    let picked = Rng.sample rng count components in
    let w = walker nl in
    let seen = Path_table.create 64 in
    let paths = ref [] in
    Array.iter
      (fun id ->
        match find_io_path ~rng w nl id with
        | None -> ()
        | Some p ->
            if not (Path_table.mem seen p.nodes) then begin
              Path_table.add seen p.nodes ();
              paths := p :: !paths
            end)
      picked;
    let all = !paths in
    (* Keep paths with >= 2 flip-flops, relaxing when none qualify (small
       or shallow circuits). *)
    let rec select need =
      let kept = List.filter (fun p -> p.ff_count >= need) all in
      if kept <> [] || need = 0 then kept else select (need - 1)
    in
    let kept = select 2 in
    (* Drop paths touching the critical path.  Preferred: exclude any path
       sharing a node with it (keeps selection on slack-rich logic).  If
       that empties the pool (tiny circuits where everything overlaps),
       fall back to the literal reading — only paths containing the whole
       critical path are dropped. *)
    let module Int_set = Set.Make (Int) in
    let crit = Int_set.of_list exclude_critical in
    let kept =
      if Int_set.is_empty crit then kept
      else begin
        let disjoint =
          List.filter
            (fun p ->
              not (List.exists (fun id -> Int_set.mem id crit) p.nodes))
            kept
        in
        if disjoint <> [] then disjoint
        else
          List.filter
            (fun p -> not (Int_set.subset crit (Int_set.of_list p.nodes)))
            kept
      end
    in
    (* Longest path = most flip-flops (the paper's depth); ties prefer the
       path with fewer nodes, i.e. the densest sequential chain. *)
    List.sort
      (fun a b ->
        match Int.compare b.ff_count a.ff_count with
        | 0 -> Int.compare (List.length a.nodes) (List.length b.nodes)
        | c -> c)
      kept
  end

let segments nl path =
  (* Split at flip-flops; PIs/PO drivers bound the first/last segment. *)
  let flush acc_gates ~launch ~capture segs =
    match acc_gates with
    | [] -> segs
    | _ ->
        { gates = List.rev acc_gates; launches_at_ff = launch; captures_at_ff = capture }
        :: segs
  in
  let rec go nodes launch acc_gates segs =
    match nodes with
    | [] -> List.rev (flush acc_gates ~launch ~capture:false segs)
    | id :: rest -> (
        match Netlist.kind nl id with
        | Netlist.Dff ->
            let segs = flush acc_gates ~launch ~capture:true segs in
            go rest true [] segs
        | Netlist.Pi | Netlist.Const _ -> go rest launch acc_gates segs
        | Netlist.Gate _ | Netlist.Lut _ -> go rest launch (id :: acc_gates) segs)
  in
  go path.nodes false [] []

let gates_on_path nl path =
  List.filter
    (fun id -> Netlist.is_combinational (Netlist.kind nl id))
    path.nodes
