type node_id = int

type kind =
  | Pi
  | Const of bool
  | Gate of Sttc_logic.Gate_fn.t
  | Lut of {
      arity : int;
      config : Sttc_logic.Truth.t option;
    }
  | Dff

type node = {
  name : string;
  kind : kind;
  fanins : node_id array;
}

(* The name index: open addressing with linear probing over a table of
   2^k 32-bit slots (-1 when empty) in a byte string, at most half full,
   which the collector never scans.  A slot packs a node id, below 2^31,
   into its low [id_bits] = k - 1 bits and the top bits of the name's
   30-bit hash above them.  The key string is the node's own name, read
   from the node array only on a hash match.  It is built once, from the
   finished node array. *)
module Names = struct
  type t = { slots : Bytes.t; id_bits : int }

  let slot slots i = Int32.to_int (Bytes.get_int32_ne slots (4 * i))

  (* the bits of hash [h] a slot keeps above [id_bits] bits of id *)
  let tag h id_bits = h lsr (id_bits - 1)

  let rec probe slots id_bits nodes key t mask i =
    let s = slot slots i in
    if
      s < 0
      || s lsr id_bits = t
         && String.equal nodes.(s land ((1 lsl id_bits) - 1)).name key
    then i
    else probe slots id_bits nodes key t mask ((i + 1) land mask)

  let find_opt { slots; id_bits } nodes key =
    let h = Hashtbl.hash key and mask = (Bytes.length slots / 4) - 1 in
    let i = probe slots id_bits nodes key (tag h id_bits) mask (h land mask) in
    let s = slot slots i in
    if s < 0 then None else Some (s land ((1 lsl id_bits) - 1))

  (* The index of [nodes]' names, inserted in id order: the first id
     whose name is already in the table is the smallest id whose name an
     earlier node holds, and is refused. *)
  let build nodes =
    let n = Array.length nodes and k = ref 6 in
    while 1 lsl !k < 2 * n do
      incr k
    done;
    let mask = (1 lsl !k) - 1 and id_bits = !k - 1 in
    let slots = Bytes.make (4 lsl !k) '\xff' in
    for id = 0 to n - 1 do
      let name = nodes.(id).name in
      let h = Hashtbl.hash name in
      let t = tag h id_bits in
      let i = probe slots id_bits nodes name t mask (h land mask) in
      if slot slots i >= 0 then
        invalid_arg ("Builder: duplicate node name " ^ name);
      Bytes.set_int32_ne slots (4 * i) (Int32.of_int ((t lsl id_bits) lor id))
    done;
    { slots; id_bits }
end

type program = {
  dst : node_id array;
  first : int array;
  fanin : node_id array;
  pis : node_id array;
  dffs : node_id array;
  d_inputs : node_id array;
  out_drivers : node_id array;
}

type t = {
  design_name : string;
  nodes : node array;
  outs : (string * node_id) array;
  by_name : Names.t;
  mutable fanout_cache : node_id list array option;
  mutable topo_cache : node_id array option;
  mutable program_cache : program option;
}

let design_name t = t.design_name
let node_count t = Array.length t.nodes

let node t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg "Netlist.node: bad id";
  t.nodes.(id)

let kind t id = (node t id).kind
let name t id = (node t id).name
let fanins t id = (node t id).fanins
let find t n = Names.find_opt t.by_name t.nodes n

let find_exn t n =
  match find t n with
  | Some id -> id
  | None -> invalid_arg ("Netlist.find_exn: no node named " ^ n)

let outputs t = t.outs

let iter f t = Array.iteri (fun id n -> f id n) t.nodes

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun id n -> acc := f id n !acc) t.nodes;
  !acc

let filter_ids p t =
  fold (fun id n acc -> if p n.kind then id :: acc else acc) t []
  |> List.rev

let pis t = filter_ids (function Pi -> true | _ -> false) t
let dffs t = filter_ids (function Dff -> true | _ -> false) t
let gates t = filter_ids (function Gate _ -> true | _ -> false) t
let luts t = filter_ids (function Lut _ -> true | _ -> false) t

let pos t =
  let seen = Hashtbl.create 16 in
  Array.fold_left
    (fun acc (_, id) ->
      if Hashtbl.mem seen id then acc
      else begin
        Hashtbl.add seen id ();
        id :: acc
      end)
    [] t.outs
  |> List.rev

let is_combinational = function
  | Gate _ | Lut _ -> true
  | Pi | Const _ | Dff -> false

let gate_count t =
  fold (fun _ n acc -> if is_combinational n.kind then acc + 1 else acc) t 0

let compute_fanouts t =
  match t.fanout_cache with
  | Some f -> f
  | None ->
      let n = Array.length t.nodes in
      let f = Array.make n [] in
      (* readers in descending id, each consed on: ascending lists *)
      for id = n - 1 downto 0 do
        let fi = t.nodes.(id).fanins in
        for k = Array.length fi - 1 downto 0 do
          let src = fi.(k) in
          f.(src) <- id :: f.(src)
        done
      done;
      t.fanout_cache <- Some f;
      f

let fanouts t id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg "Netlist.fanouts: bad id";
  (compute_fanouts t).(id)

let fanout_degree t id = List.length (fanouts t id)

exception Cycle of node_id

let compute_topo t =
  match t.topo_cache with
  | Some o -> o
  | None ->
      let n = Array.length t.nodes in
      let state = Array.make n 0 in
      (* 0 unvisited, 1 on stack, 2 done *)
      let order = Array.make n 0 in
      let placed = ref 0 in
      let place id =
        order.(!placed) <- id;
        incr placed
      in
      (* Sources first, in id order. *)
      Array.iteri
        (fun id nd ->
          if not (is_combinational nd.kind) then begin
            state.(id) <- 2;
            place id
          end)
        t.nodes;
      (* Iterative DFS over combinational fanin edges.  A node is on the
         stack at most once (state 1), so two arrays of [n] slots hold it:
         the node and the index of its next fanin to explore. *)
      let stack_id = Array.make n 0 and stack_next = Array.make n 0 in
      let depth = ref 0 in
      let push id =
        state.(id) <- 1;
        stack_id.(!depth) <- id;
        stack_next.(!depth) <- 0;
        incr depth
      in
      for root = 0 to n - 1 do
        if state.(root) = 0 then begin
          push root;
          while !depth > 0 do
            let top = !depth - 1 in
            let id = stack_id.(top) and next = stack_next.(top) in
            let fi = t.nodes.(id).fanins in
            if next < Array.length fi then begin
              stack_next.(top) <- next + 1;
              let src = fi.(next) in
              match state.(src) with
              | 0 -> push src
              | 1 -> raise (Cycle src)
              | _ -> ()
            end
            else begin
              state.(id) <- 2;
              place id;
              depth := top
            end
          done
        end
      done;
      t.topo_cache <- Some order;
      order

let topo_order t = compute_topo t

let compute_program t =
  match t.program_cache with
  | Some p -> p
  | None ->
      let nodes = t.nodes in
      let n = Array.length nodes in
      let n_instr = ref 0 and n_fanin = ref 0 in
      let n_pis = ref 0 and n_dffs = ref 0 in
      for id = 0 to n - 1 do
        match nodes.(id).kind with
        | Pi -> incr n_pis
        | Dff -> incr n_dffs
        | Const _ | Gate _ | Lut _ ->
            incr n_instr;
            n_fanin := !n_fanin + Array.length nodes.(id).fanins
      done;
      (* the non-sources in topological order, their fanins in one array *)
      let order = compute_topo t in
      let dst = Array.make !n_instr 0 in
      let first = Array.make (!n_instr + 1) 0 in
      let fanin = Array.make !n_fanin 0 in
      let i = ref 0 in
      for j = 0 to n - 1 do
        let id = order.(j) in
        match nodes.(id).kind with
        | Pi | Dff -> ()
        | Const _ | Gate _ | Lut _ ->
            let fi = nodes.(id).fanins and at = first.(!i) in
            dst.(!i) <- id;
            for k = 0 to Array.length fi - 1 do
              fanin.(at + k) <- fi.(k)
            done;
            first.(!i + 1) <- at + Array.length fi;
            incr i
      done;
      (* the sources in id order *)
      let pis = Array.make !n_pis 0 and dffs = Array.make !n_dffs 0 in
      let p = ref 0 and f = ref 0 in
      for id = 0 to n - 1 do
        match nodes.(id).kind with
        | Pi ->
            pis.(!p) <- id;
            incr p
        | Dff ->
            dffs.(!f) <- id;
            incr f
        | Const _ | Gate _ | Lut _ -> ()
      done;
      let p =
        {
          dst;
          first;
          fanin;
          pis;
          dffs;
          d_inputs = Array.map (fun ff -> nodes.(ff).fanins.(0)) dffs;
          out_drivers = Array.map snd t.outs;
        }
      in
      t.program_cache <- Some p;
      p

let program t = compute_program t

let warm t =
  ignore (compute_fanouts t);
  ignore (compute_topo t);
  ignore (compute_program t)

let stats t =
  Printf.sprintf "%s: %d nodes (%d PI, %d PO, %d DFF, %d gates, %d LUTs)"
    t.design_name (node_count t)
    (List.length (pis t))
    (Array.length t.outs)
    (List.length (dffs t))
    (List.length (gates t))
    (List.length (luts t))

module Builder = struct
  (* The node records are kept in chunks of [chunk]: a chunk is small
     enough for the minor heap, so most stores land in a young block and
     are not remembered for the next minor collection, and no add copies
     the records made so far.  [finalize] joins the chunks into the node
     array. *)
  let chunk = 256
  let unused = { name = ""; kind = Pi; fanins = [||] }

  type t = {
    b_design : string;
    b_chunks : node array Sttc_util.Growable.t;
    mutable b_count : int;
    mutable b_outs : (string * node_id) list; (* reversed *)
    b_out_names : (string, unit) Hashtbl.t;
  }

  let create ?(design_name = "design") () =
    {
      b_design = design_name;
      b_chunks = Sttc_util.Growable.create ();
      b_count = 0;
      b_outs = [];
      b_out_names = Hashtbl.create 16;
    }

  let node_count b = b.b_count

  (* names are checked for duplicates and indexed by [finalize] *)
  let add_node b name kind fanins =
    if name = "" then invalid_arg "Builder: empty node name";
    let id = b.b_count in
    if id mod chunk = 0 then
      ignore (Sttc_util.Growable.push b.b_chunks (Array.make chunk unused));
    let c = Sttc_util.Growable.last b.b_chunks in
    c.(id mod chunk) <- { name; kind; fanins };
    b.b_count <- id + 1;
    id

  let check_ref b id ctx =
    if id < 0 || id >= node_count b then
      invalid_arg ("Builder: undefined node reference in " ^ ctx)

  let add_pi b name = add_node b name Pi [||]
  let add_const b name v = add_node b name (Const v) [||]

  (* The [Gate fn] kind of every valid function, built once and stored by
     every gate of that function. *)
  let gate_kinds =
    Array.of_list (List.map (fun fn -> Gate fn) Sttc_logic.Gate_fn.all)

  (* Adds a combinational node whose fanin count its caller has checked:
     every fanin must already exist. *)
  let add_comb b name kind fanins =
    let n = node_count b in
    for k = 0 to Array.length fanins - 1 do
      let id = fanins.(k) in
      if id < 0 || id >= n then
        invalid_arg ("Builder: undefined node reference in " ^ name)
    done;
    add_node b name kind fanins

  let add_gate b name fn fanins =
    (* [index] validates [fn] *)
    let kind = gate_kinds.(Sttc_logic.Gate_fn.index fn) in
    if Array.length fanins <> Sttc_logic.Gate_fn.arity fn then
      invalid_arg ("Builder.add_gate: arity mismatch at " ^ name);
    add_comb b name kind fanins

  let add_lut b name ?config fanins =
    let arity = Array.length fanins in
    if arity < 1 || arity > Sttc_logic.Truth.max_arity then
      invalid_arg ("Builder.add_lut: arity out of range at " ^ name);
    (match config with
    | Some c when Sttc_logic.Truth.arity c <> arity ->
        invalid_arg ("Builder.add_lut: config arity mismatch at " ^ name)
    | _ -> ());
    add_comb b name (Lut { arity; config }) fanins

  let add_dff b name d =
    check_ref b d name;
    add_node b name Dff [| d |]

  let add_dff_deferred b name = add_node b name Dff [| -1 |]

  let set_dff_input b ff d =
    check_ref b ff "set_dff_input";
    check_ref b d "set_dff_input";
    let c = Sttc_util.Growable.get b.b_chunks (ff / chunk) in
    let n = c.(ff mod chunk) in
    (match n.kind with
    | Dff -> ()
    | _ -> invalid_arg "Builder.set_dff_input: not a DFF");
    c.(ff mod chunk) <- { n with fanins = [| d |] }

  let add_output b name id =
    check_ref b id ("output " ^ name);
    if Hashtbl.mem b.b_out_names name then
      invalid_arg ("Builder: duplicate output name " ^ name);
    Hashtbl.add b.b_out_names name ();
    b.b_outs <- (name, id) :: b.b_outs

  let finalize b =
    let nodes =
      let last = (b.b_count - 1) / chunk in
      Array.concat
        (List.mapi
           (fun c a ->
             if c < last then a else Array.sub a 0 (b.b_count - (c * chunk)))
           (Sttc_util.Growable.to_list b.b_chunks))
    in
    let by_name = Names.build nodes in
    if b.b_outs = [] then invalid_arg "Builder.finalize: no outputs";
    (* A fanin exists before its reader is added, so every combinational
       node comes after its combinational fanins in id order: the
       topological order [compute_topo] would find is the sources in id
       order, then the combinational nodes in id order, and no
       combinational cycle can exist. *)
    let n = Array.length nodes and n_src = ref 0 in
    for id = 0 to n - 1 do
      let nd = nodes.(id) in
      match nd.kind with
      | Dff when nd.fanins.(0) < 0 ->
          invalid_arg ("Builder.finalize: unwired DFF " ^ nd.name)
      | Pi | Const _ | Dff -> incr n_src
      | Gate _ | Lut _ -> ()
    done;
    let order = Array.make n 0 and src = ref 0 and comb = ref !n_src in
    for id = 0 to n - 1 do
      if is_combinational nodes.(id).kind then begin
        order.(!comb) <- id;
        incr comb
      end
      else begin
        order.(!src) <- id;
        incr src
      end
    done;
    {
      design_name = b.b_design;
      nodes;
      outs = Array.of_list (List.rev b.b_outs);
      by_name;
      fanout_cache = None;
      topo_cache = Some order;
      program_cache = None;
    }
end

let validate_node n ~node_total ~who =
  let expect k =
    if Array.length n.fanins <> k then
      invalid_arg (who ^ ": fanin arity mismatch at " ^ n.name)
  in
  Array.iter
    (fun src ->
      if src < 0 || src >= node_total then
        invalid_arg (who ^ ": fanin out of range at " ^ n.name))
    n.fanins;
  match n.kind with
  | Pi | Const _ -> expect 0
  | Dff -> expect 1
  | Gate fn ->
      Sttc_logic.Gate_fn.validate fn;
      expect (Sttc_logic.Gate_fn.arity fn)
  | Lut { arity; config } ->
      if arity < 1 || arity > Sttc_logic.Truth.max_arity then
        invalid_arg (who ^ ": LUT arity out of range at " ^ n.name);
      expect arity;
      (match config with
      | Some c when Sttc_logic.Truth.arity c <> arity ->
          invalid_arg (who ^ ": LUT config arity mismatch at " ^ n.name)
      | _ -> ())

(* What the caches read of a kind: [compute_topo] orders by
   [is_combinational], and [compute_program] also tells the sources
   ([Pi], [Dff]) from [Const] and lists the PIs and flip-flops. *)
let kind_class = function
  | Pi -> 0
  | Dff -> 1
  | Const _ -> 2
  | Gate _ | Lut _ -> 3

let with_kinds t f =
  let node_total = Array.length t.nodes in
  let same_structure = ref true in
  (* a copy with the changed slots overwritten, not [Array.mapi]: a young
     first node as the initial value of a long array forces a minor
     collection *)
  let nodes = Array.copy t.nodes in
  Array.iteri
    (fun id n ->
      let kind, fanins = f id n.kind n.fanins in
      if not (kind == n.kind && fanins == n.fanins) then begin
        let n' = { n with kind; fanins } in
        validate_node n' ~node_total ~who:"Netlist.with_kinds";
        if fanins != n.fanins || kind_class kind <> kind_class n.kind then
          same_structure := false;
        nodes.(id) <- n'
      end)
    t.nodes;
  if !same_structure then
    (* the fanout, topological-order and program caches of [t] hold for
       [nodes], which are acyclic because [t]'s are *)
    { t with nodes }
  else begin
    let t' =
      {
        t with
        nodes;
        fanout_cache = None;
        topo_cache = None;
        program_cache = None;
      }
    in
    (try ignore (compute_topo t')
     with Cycle id ->
       invalid_arg
         ("Netlist.with_kinds: combinational cycle through " ^ nodes.(id).name));
    t'
  end

let kind_delta a b =
  if Array.length a.nodes <> Array.length b.nodes then None
  else if a.outs != b.outs && a.outs <> b.outs then None
  else begin
    let changed = ref [] in
    try
      for id = Array.length a.nodes - 1 downto 0 do
        let na = a.nodes.(id) and nb = b.nodes.(id) in
        if na.fanins != nb.fanins && na.fanins <> nb.fanins then raise Exit;
        if na.name != nb.name && not (String.equal na.name nb.name) then
          raise Exit;
        if na.kind <> nb.kind then
          match (na.kind, nb.kind) with
          | (Gate _ | Lut _), (Gate _ | Lut _) -> changed := id :: !changed
          | _ -> raise Exit
      done;
      Some !changed
    with Exit -> None
  end
