let fanin_cone t start =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      acc := id :: !acc;
      if Netlist.is_combinational (Netlist.kind t id) then
        Array.iter go (Netlist.fanins t id)
    end
  in
  go start;
  List.rev !acc

let fanout_cone t start =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      acc := id :: !acc;
      (* stop expanding past sequential elements *)
      List.iter
        (fun out ->
          match Netlist.kind t out with
          | Netlist.Dff -> ()
          | _ -> go out)
        (Netlist.fanouts t id)
    end
  in
  go start;
  List.rev !acc

let cone_inputs t nodes =
  let n = Netlist.node_count t in
  let seen = Array.make n false and is_input = Array.make n false in
  let inputs = ref [] in
  let add_input id =
    if not is_input.(id) then begin
      is_input.(id) <- true;
      inputs := id :: !inputs
    end
  in
  (* each node is pushed once, when first seen *)
  let stack = Array.make n 0 and sp = ref 0 in
  let push_fanins id =
    let fi = Netlist.fanins t id in
    for k = 0 to Array.length fi - 1 do
      let src = fi.(k) in
      if not seen.(src) then begin
        seen.(src) <- true;
        stack.(!sp) <- src;
        incr sp
      end
    done
  in
  (* a node passed directly expands from its fanins, so a source among
     them is not its own input *)
  let expand id =
    if Netlist.is_combinational (Netlist.kind t id) then push_fanins id
    else add_input id
  in
  List.iter expand nodes;
  while !sp > 0 do
    decr sp;
    expand stack.(!sp)
  done;
  List.sort Int.compare !inputs

let levels t =
  let order = Netlist.topo_order t in
  let lv = Array.make (Netlist.node_count t) 0 in
  Array.iter
    (fun id ->
      if Netlist.is_combinational (Netlist.kind t id) then begin
        let m = ref 0 in
        Array.iter (fun src -> m := max !m lv.(src)) (Netlist.fanins t id);
        lv.(id) <- !m + 1
      end)
    order;
  lv

let depth t = Array.fold_left max 0 (levels t)

let bfs_reaches t ~cross_dff a b =
  if a = b then true
  else begin
    let seen = Array.make (Netlist.node_count t) false in
    let queue = Queue.create () in
    Queue.push a queue;
    seen.(a) <- true;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      List.iter
        (fun out ->
          if not seen.(out) then begin
            let is_dff =
              match Netlist.kind t out with Netlist.Dff -> true | _ -> false
            in
            if out = b then found := true
            else if cross_dff || not is_dff then begin
              seen.(out) <- true;
              Queue.push out queue
            end
          end)
        (Netlist.fanouts t id)
    done;
    !found
  end

let reaches t a b = bfs_reaches t ~cross_dff:true a b
let reaches_combinationally t a b = bfs_reaches t ~cross_dff:false a b

let sequential_depth_to_po t =
  (* Reverse 0/1 BFS in the cost domain: cost of traversing into a DFF is
     1, other edges 0.  The deque is a ring over a power-of-two array,
     doubled when full (a node is queued again when its distance
     improves). *)
  let n = Netlist.node_count t in
  let dist = Array.make n max_int in
  let ring = ref (Array.make 16 0) and head = ref 0 and len = ref 0 in
  let grow () =
    let old = !ring in
    let cap = Array.length old in
    let bigger = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      bigger.(i) <- old.((!head + i) land (cap - 1))
    done;
    ring := bigger;
    head := 0
  in
  let push_front x =
    if !len = Array.length !ring then grow ();
    head := (!head - 1) land (Array.length !ring - 1);
    !ring.(!head) <- x;
    incr len
  in
  let push_back x =
    if !len = Array.length !ring then grow ();
    !ring.((!head + !len) land (Array.length !ring - 1)) <- x;
    incr len
  in
  Array.iter
    (fun (_, id) ->
      if dist.(id) <> 0 then begin
        dist.(id) <- 0;
        push_back id
      end)
    (Netlist.outputs t);
  while !len > 0 do
    let id = !ring.(!head) in
    head := (!head + 1) land (Array.length !ring - 1);
    decr len;
    (* relax fanin edges: moving from node [id] to its fanin [src].
       Crossing INTO a DFF from its fanout side means the fanin path
       passes through that DFF: the cost is on the DFF node itself. *)
    let cost = match Netlist.kind t id with Netlist.Dff -> 1 | _ -> 0 in
    let nd = dist.(id) + cost in
    let fi = Netlist.fanins t id in
    for k = 0 to Array.length fi - 1 do
      let src = fi.(k) in
      if nd < dist.(src) then begin
        dist.(src) <- nd;
        if cost = 0 then push_front src else push_back src
      end
    done
  done;
  dist

(* ---------- per-node cone summaries ---------- *)

type cone_summary = {
  support : int array;
  support_hash : int array;
  obs_points : int array;
}

(* Dense bitset rows over a small universe (sources or observation
   points), one row per node.  [w] words of 63 bits each keep the row a
   flat int array — no boxing, and the union in the transfer function is
   a word-wise [lor]. *)
let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let cone_summary t =
  let n = Netlist.node_count t in
  (* -- forward pass: which sources (PIs, constants, DFF outputs) feed
        each node's combinational fanin cone -- *)
  let src_index = Array.make n (-1) in
  let nsrc = ref 0 in
  Netlist.iter
    (fun id node ->
      if not (Netlist.is_combinational node.Netlist.kind) then begin
        src_index.(id) <- !nsrc;
        incr nsrc
      end)
    t;
  let w = (!nsrc + 62) / 63 in
  let w = max w 1 in
  let rows = Array.make (n * w) 0 in
  let order = Netlist.topo_order t in
  Array.iter
    (fun id ->
      let base = id * w in
      if src_index.(id) >= 0 then begin
        let b = src_index.(id) in
        rows.(base + (b / 63)) <- 1 lsl (b mod 63)
      end
      else
        Array.iter
          (fun src ->
            let sbase = src * w in
            for k = 0 to w - 1 do
              rows.(base + k) <- rows.(base + k) lor rows.(sbase + k)
            done)
          (Netlist.fanins t id))
    order;
  let support = Array.make n 0 in
  let support_hash = Array.make n 0 in
  for id = 0 to n - 1 do
    let base = id * w in
    let count = ref 0 and h = ref 0 in
    for k = 0 to w - 1 do
      let word = rows.(base + k) in
      count := !count + popcount word;
      (* order-independent only across rows with identical word layout,
         which is all we need: equal sets produce equal hashes *)
      h := (!h * 1000003) lxor word
    done;
    support.(id) <- !count;
    support_hash.(id) <- !h
  done;
  (* -- reverse pass: which observation points (primary outputs,
        flip-flop D inputs) each node reaches combinationally -- *)
  let obs_index = Array.make n (-1) in
  let nobs = ref 0 in
  let mark id =
    if obs_index.(id) < 0 then begin
      obs_index.(id) <- !nobs;
      incr nobs
    end
  in
  List.iter mark (Netlist.pos t);
  (* a flip-flop is an observation point for its D-input cone *)
  List.iter mark (Netlist.dffs t);
  let ow = max ((!nobs + 62) / 63) 1 in
  let orows = Array.make (n * ow) 0 in
  let set_bit base b = orows.(base + (b / 63)) <- orows.(base + (b / 63)) lor (1 lsl (b mod 63)) in
  for i = Array.length order - 1 downto 0 do
    let id = order.(i) in
    let obase = id * ow in
    if obs_index.(id) >= 0 then
      (* PO drivers observe themselves; a DFF observes its own D input,
         which is accounted on the fanin side below *)
      (match Netlist.kind t id with
      | Netlist.Dff -> ()
      | _ -> set_bit obase obs_index.(id));
    List.iter
      (fun reader ->
        match Netlist.kind t reader with
        | Netlist.Dff -> set_bit obase obs_index.(reader)
        | _ ->
            let rbase = reader * ow in
            for k = 0 to ow - 1 do
              orows.(obase + k) <- orows.(obase + k) lor orows.(rbase + k)
            done)
      (Netlist.fanouts t id)
  done;
  let obs_points = Array.make n 0 in
  for id = 0 to n - 1 do
    let base = id * ow in
    let count = ref 0 in
    for k = 0 to ow - 1 do
      count := !count + popcount orows.(base + k)
    done;
    obs_points.(id) <- !count
  done;
  { support; support_hash; obs_points }

let connected_lut_pair_count t ids =
  (* One forward sweep per block of 63 members over the fanin arrays:
     [up] holds which block members reach a node along a combinational
     path, a native-int mask, so a member's fanins' [up] names the block
     members reaching it.  O(edges x |ids|/63) with no pair ever built.
     A flip-flop keeps 0 and starts no path, so reachability never
     crosses one; PIs and constants start paths only as members. *)
  let n = Netlist.node_count t in
  let chunk_of = Array.make n (-1) and bit_of = Array.make n 0 in
  List.iteri
    (fun i id ->
      if id < 0 || id >= n then
        invalid_arg "Query.connected_lut_pair_count: bad id";
      chunk_of.(id) <- i / 63;
      bit_of.(id) <- 1 lsl (i mod 63))
    ids;
  let order = Netlist.topo_order t in
  let up = Array.make n 0 and count = ref 0 in
  for c = 0 to ((List.length ids + 62) / 63) - 1 do
    Array.iter
      (fun id ->
        let own = if chunk_of.(id) = c then bit_of.(id) else 0 in
        let node = Netlist.node t id in
        match node.Netlist.kind with
        | Netlist.Dff -> ()
        | Netlist.Pi | Netlist.Const _ -> up.(id) <- own
        | Netlist.Gate _ | Netlist.Lut _ ->
            let fi = node.Netlist.fanins in
            let acc = ref 0 in
            for k = 0 to Array.length fi - 1 do
              acc := !acc lor up.(fi.(k))
            done;
            (* counted before the own bit joins: a zero-length path is
               not a pair *)
            if chunk_of.(id) >= 0 then count := !count + popcount !acc;
            up.(id) <- !acc lor own)
      order
  done;
  !count
