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

(* The name index: open addressing with linear probing over a
   power-of-two table at most half full.  A slot packs a name's 30-bit
   hash above its node id (-1 when empty: ids are non-negative and below
   2^32, and ints have 63 bits).  The key string is the node's own name,
   read through [name_of] only on a hash match, so the index is one int
   array.  It is built once, from the finished node array. *)
module Names = struct
  type t = int array

  let id_of slot = slot land 0xFFFF_FFFF

  let rec probe slots name_of key h mask i =
    let s = slots.(i) in
    if s < 0 || (s lsr 32 = h && String.equal (name_of (id_of s)) key) then i
    else probe slots name_of key h mask ((i + 1) land mask)

  let find_opt slots name_of key =
    let h = Hashtbl.hash key and mask = Array.length slots - 1 in
    let s = slots.(probe slots name_of key h mask (h land mask)) in
    if s < 0 then None else Some (id_of s)

  let radix_bits = 11

  (* [entries] stably ordered by home slot [(e lsr 32) land mask], with
     LSD radix passes of [radix_bits] bits (one pass of a bucket per slot
     for a table smaller than that) *)
  let sort_by_home entries mask =
    let buckets = min (1 lsl radix_bits) (mask + 1) in
    let count = Array.make buckets 0 in
    let src = ref entries and dst = ref (Array.make (Array.length entries) 0) in
    let shift = ref 0 in
    while mask lsr !shift > 0 do
      let digit e = (((e lsr 32) land mask) lsr !shift) land (buckets - 1) in
      Array.fill count 0 buckets 0;
      Array.iter
        (fun e ->
          let d = digit e in
          count.(d) <- count.(d) + 1)
        !src;
      let at = ref 0 in
      for d = 0 to buckets - 1 do
        let c = count.(d) in
        count.(d) <- !at;
        at := !at + c
      done;
      let out = !dst in
      Array.iter
        (fun e ->
          let d = digit e in
          out.(count.(d)) <- e;
          count.(d) <- count.(d) + 1)
        !src;
      dst := !src;
      src := out;
      shift := !shift + radix_bits
    done;
    !src

  (* The index of the [n] nodes named [name_of 0 .. n - 1].  Inserting
     in home-slot order makes every probe walk the table forward.  Equal
     names share a home slot, where the stable order keeps them in id
     order, so a duplicate meets the earlier holder of its name; raises
     for the smallest such id. *)
  let build n name_of =
    let len = ref 64 in
    while !len < 2 * n do
      len := 2 * !len
    done;
    let mask = !len - 1 in
    let entries =
      sort_by_home
        (Array.init n (fun id -> (Hashtbl.hash (name_of id) lsl 32) lor id))
        mask
    in
    let slots = Array.make !len (-1) and dup = ref n in
    Array.iter
      (fun e ->
        let h = e lsr 32 and id = id_of e in
        let i = probe slots name_of (name_of id) h mask (h land mask) in
        if slots.(i) < 0 then slots.(i) <- e else if id < !dup then dup := id)
      entries;
    if !dup < n then
      invalid_arg ("Builder: duplicate node name " ^ name_of !dup);
    slots
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
let find t n = Names.find_opt t.by_name (fun id -> t.nodes.(id).name) n

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
  type t = {
    b_design : string;
    b_nodes : node Sttc_util.Growable.t;
    mutable b_outs : (string * node_id) list; (* reversed *)
    b_out_names : (string, unit) Hashtbl.t;
  }

  let create ?(design_name = "design") () =
    {
      b_design = design_name;
      b_nodes = Sttc_util.Growable.create ();
      b_outs = [];
      b_out_names = Hashtbl.create 16;
    }

  let node_count b = Sttc_util.Growable.length b.b_nodes

  (* names are checked for duplicates and indexed by [finalize] *)
  let add_node b name kind fanins =
    if name = "" then invalid_arg "Builder: empty node name";
    Sttc_util.Growable.push b.b_nodes { name; kind; fanins }

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
    for k = 0 to Array.length fanins - 1 do
      check_ref b fanins.(k) name
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
    let n = Sttc_util.Growable.get b.b_nodes ff in
    (match n.kind with
    | Dff -> ()
    | _ -> invalid_arg "Builder.set_dff_input: not a DFF");
    Sttc_util.Growable.set b.b_nodes ff { n with fanins = [| d |] }

  let add_output b name id =
    check_ref b id ("output " ^ name);
    if Hashtbl.mem b.b_out_names name then
      invalid_arg ("Builder: duplicate output name " ^ name);
    Hashtbl.add b.b_out_names name ();
    b.b_outs <- (name, id) :: b.b_outs

  let finalize b =
    let nodes = Sttc_util.Growable.to_array b.b_nodes in
    let by_name =
      Names.build (Array.length nodes) (fun id -> nodes.(id).name)
    in
    if b.b_outs = [] then invalid_arg "Builder.finalize: no outputs";
    (* A fanin exists before its reader is added, so every combinational
       node comes after its combinational fanins in id order: the
       topological order [compute_topo] would find is the sources in id
       order, then the combinational nodes in id order, and no
       combinational cycle can exist. *)
    let order = Array.make (Array.length nodes) 0 and placed = ref 0 in
    let place id =
      order.(!placed) <- id;
      incr placed
    in
    Array.iteri
      (fun id n ->
        match n.kind with
        | Dff when n.fanins.(0) < 0 ->
            invalid_arg ("Builder.finalize: unwired DFF " ^ n.name)
        | Pi | Const _ | Dff -> place id
        | Gate _ | Lut _ -> ())
      nodes;
    Array.iteri (fun id n -> if is_combinational n.kind then place id) nodes;
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

let rename t new_name = { t with design_name = new_name }

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
  let nodes =
    Array.mapi
      (fun id n ->
        let kind, fanins = f id n.kind n.fanins in
        if kind == n.kind && fanins == n.fanins then n
        else begin
          let n' = { n with kind; fanins } in
          validate_node n' ~node_total ~who:"Netlist.with_kinds";
          if fanins != n.fanins || kind_class kind <> kind_class n.kind then
            same_structure := false;
          n'
        end)
      t.nodes
  in
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
