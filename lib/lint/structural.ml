module D = Diagnostic
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Netlist = Sttc_netlist.Netlist

type rule = {
  id : string;
  alias : string;
  severity : D.severity;
  doc : string;
}

let r_comb_loop =
  {
    id = "STR001";
    alias = "comb-loop";
    severity = D.Error;
    doc =
      "Combinational cycle: a feedback loop that passes through no \
       flip-flop (Tarjan SCC over the gate graph).";
  }

let r_undriven =
  {
    id = "STR002";
    alias = "undriven-net";
    severity = D.Error;
    doc =
      "Undriven or floating net: a fanin that references no driver \
       (undefined signal, unwired flip-flop input).";
  }

let r_multi_driver =
  {
    id = "STR003";
    alias = "multi-driver";
    severity = D.Error;
    doc = "One signal name driven by more than one node.";
  }

let r_dangling =
  {
    id = "STR004";
    alias = "dangling-gate";
    severity = D.Warning;
    doc =
      "Dead logic: a combinational node from which no primary output \
       and no flip-flop can be reached.";
  }

let r_arity =
  {
    id = "STR005";
    alias = "arity-mismatch";
    severity = D.Error;
    doc =
      "Fan-in count disagrees with the node's gate function, or the \
       technology library has no cell for it.";
  }

let r_dup_name =
  {
    id = "STR006";
    alias = "duplicate-name";
    severity = D.Error;
    doc = "Duplicate primary-output name.";
  }

let r_no_output =
  {
    id = "STR007";
    alias = "no-output";
    severity = D.Error;
    doc = "The design declares no primary output.";
  }

let rules =
  [
    r_comb_loop;
    r_undriven;
    r_multi_driver;
    r_dangling;
    r_arity;
    r_dup_name;
    r_no_output;
  ]

let diag rule ?node detail =
  D.make ~rule:rule.id ~alias:rule.alias ~severity:rule.severity ?node detail

(* ---------- STR001: Tarjan SCC over combinational edges ---------- *)

(* Edges: src -> dst for every valid fanin reference of a combinational
   dst.  Flip-flops break loops (their D input is a sequential edge), so
   any SCC of size > 1 — or a combinational self-loop — is a
   combinational cycle.  Successors are CSR rows, each source's readers
   in descending id; the DFS takes them in that order from roots in
   ascending id, and findings come out latest-completed SCC first. *)
let check_comb_loop (g : Graph.t) =
  let nodes = g.Graph.nodes in
  let n = Array.length nodes in
  let comb_fanins dst =
    let node = nodes.(dst) in
    if Netlist.is_combinational node.Netlist.kind then node.Netlist.fanins
    else [||]
  in
  (* [start.(v)] counts v's readers, then sums them up to v; the fill
     walks readers in ascending id and steps each row's end back, which
     leaves row v at [start.(v)] .. [start.(v + 1) - 1] in descending id *)
  let start = Array.make (n + 1) 0 in
  for dst = 0 to n - 1 do
    let fi = comb_fanins dst in
    for k = 0 to Array.length fi - 1 do
      let src = fi.(k) in
      if src >= 0 && src < n then start.(src) <- start.(src) + 1
    done
  done;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let succ = Array.make start.(n) 0 in
  let self_loops = ref false in
  for dst = 0 to n - 1 do
    let fi = comb_fanins dst in
    for k = 0 to Array.length fi - 1 do
      let src = fi.(k) in
      if src >= 0 && src < n then begin
        start.(src) <- start.(src) - 1;
        succ.(start.(src)) <- dst;
        if src = dst then self_loops := true
      end
    done
  done;
  let self_loop v =
    let rec go k = k < start.(v + 1) && (succ.(k) = v || go (k + 1)) in
    !self_loops && go start.(v)
  in
  (* Iterative Tarjan: the work stack holds each open node and the CSR
     position of its next successor; a node enters each stack once.  A
     node whose SCC is complete gets index [n], above every lowlink, so
     the on-stack test is the lowlink comparison itself. *)
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let work = Array.make n 0 and work_pos = Array.make n 0 and wp = ref 0 in
  let next_index = ref 0 in
  let sccs = ref [] in
  let visit v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    work.(!wp) <- v;
    work_pos.(!wp) <- start.(v);
    incr wp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      visit root;
      while !wp > 0 do
        let top = !wp - 1 in
        let v = work.(top) and pos = work_pos.(top) in
        if pos < start.(v + 1) then begin
          work_pos.(top) <- pos + 1;
          let w = succ.(pos) in
          if index.(w) < 0 then visit w
          else if index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          wp := top;
          (if top > 0 then
             let p = work.(top - 1) in
             if lowlink.(v) < lowlink.(p) then lowlink.(p) <- lowlink.(v));
          if lowlink.(v) = index.(v) then begin
            (* the SCC rooted at v is the node stack from v up *)
            let k = ref (!sp - 1) in
            while stack.(!k) <> v do
              decr k
            done;
            for j = !k to !sp - 1 do
              index.(stack.(j)) <- n
            done;
            let size = !sp - !k in
            if size > 1 || self_loop v then
              sccs := Array.sub stack !k size :: !sccs;
            sp := !k
          end
        end
      done
    end
  done;
  List.map
    (fun members ->
      let names =
        Array.to_list (Array.map (fun v -> nodes.(v).Netlist.name) members)
        |> List.sort String.compare
      in
      diag r_comb_loop ~node:(List.hd names)
        (Printf.sprintf "combinational cycle through %d node(s): %s"
           (Array.length members)
           (String.concat " -> " names)))
    !sccs

(* ---------- STR002: undriven / floating references ---------- *)

let check_undriven (g : Graph.t) =
  let bad = ref [] in
  Array.iter
    (fun node ->
      let fanins = node.Netlist.fanins in
      let missing = ref 0 in
      for k = 0 to Array.length fanins - 1 do
        if not (Graph.valid_ref g fanins.(k)) then incr missing
      done;
      if !missing > 0 then
        bad :=
          diag r_undriven ~node:node.Netlist.name
            (Printf.sprintf "%d fanin(s) have no driver" !missing)
          :: !bad)
    g.Graph.nodes;
  Array.iter
    (fun (name, drv) ->
      if not (Graph.valid_ref g drv) then
        bad :=
          diag r_undriven ~node:name
            "primary output references no driver"
          :: !bad)
    g.Graph.outputs;
  List.rev !bad

(* ---------- STR003: multiple drivers of one name ---------- *)

(* Open addressing over node ids, at most half full: a name hashes once
   and its first holder counts the nodes that carry it. *)
let check_multi_driver (g : Graph.t) =
  let nodes = g.Graph.nodes in
  let n = Array.length nodes in
  let len = ref 16 in
  while !len < 2 * n do
    len := 2 * !len
  done;
  let mask = !len - 1 in
  let slots = Array.make !len (-1) and count = Array.make n 0 in
  for id = 0 to n - 1 do
    let name = nodes.(id).Netlist.name in
    let i = ref (Hashtbl.hash name land mask) in
    while
      slots.(!i) >= 0
      && not (String.equal nodes.(slots.(!i)).Netlist.name name)
    do
      i := (!i + 1) land mask
    done;
    let holder = slots.(!i) in
    if holder < 0 then begin
      slots.(!i) <- id;
      count.(id) <- 1
    end
    else count.(holder) <- count.(holder) + 1
  done;
  let out = ref [] in
  for id = n - 1 downto 0 do
    if count.(id) > 1 then
      out :=
        diag r_multi_driver ~node:nodes.(id).Netlist.name
          (Printf.sprintf "signal is driven by %d nodes" count.(id))
        :: !out
  done;
  List.sort D.compare !out

(* ---------- STR004: dangling combinational nodes ---------- *)

let check_dangling (g : Graph.t) =
  let n = Array.length g.Graph.nodes in
  let useful = Array.make n false in
  let rec mark v =
    if Graph.valid_ref g v && not useful.(v) then begin
      useful.(v) <- true;
      let fi = g.Graph.nodes.(v).Netlist.fanins in
      for k = 0 to Array.length fi - 1 do
        mark fi.(k)
      done
    end
  in
  Array.iter (fun (_, drv) -> mark drv) g.Graph.outputs;
  Array.iteri
    (fun _ node ->
      match node.Netlist.kind with
      | Netlist.Dff -> Array.iter mark node.Netlist.fanins
      | _ -> ())
    g.Graph.nodes;
  let out = ref [] in
  Array.iteri
    (fun id node ->
      if Netlist.is_combinational node.Netlist.kind && not useful.(id) then
        out :=
          diag r_dangling ~node:node.Netlist.name
            "drives no primary output and no flip-flop (dead logic)"
          :: !out)
    g.Graph.nodes;
  List.rev !out

(* ---------- STR005: arity / technology-cell mismatches ---------- *)

let check_arity ~library (g : Graph.t) =
  let out = ref [] in
  let bad node detail = out := diag r_arity ~node detail :: !out in
  Array.iter
    (fun node ->
      let fi = Array.length node.Netlist.fanins in
      let name = node.Netlist.name in
      match node.Netlist.kind with
      | Netlist.Pi | Netlist.Const _ ->
          if fi <> 0 then
            bad name (Printf.sprintf "source node carries %d fanin(s)" fi)
      | Netlist.Dff ->
          if fi <> 1 then
            bad name (Printf.sprintf "flip-flop has %d fanins (wants 1)" fi)
      | Netlist.Gate fn -> (
          match Gate_fn.validate fn with
          | () ->
              if fi <> Gate_fn.arity fn then
                bad name
                  (Printf.sprintf "%s has %d fanins (cell wants %d)"
                     (Gate_fn.to_string fn) fi (Gate_fn.arity fn))
              else begin
                match Sttc_tech.Library.gate_cell library fn with
                | (_ : Sttc_tech.Cell.t) -> ()
                | exception Invalid_argument m ->
                    bad name ("no technology cell: " ^ m)
              end
          | exception Invalid_argument m -> bad name ("invalid gate: " ^ m))
      | Netlist.Lut { arity; _ } ->
          if arity < 1 || arity > Truth.max_arity then
            bad name
              (Printf.sprintf "LUT arity %d outside [1, %d]" arity
                 Truth.max_arity)
          else if fi <> arity then
            bad name
              (Printf.sprintf "LUT has %d fanins (arity says %d)" fi arity)
          else begin
            match Sttc_tech.Library.lut_cell library arity with
            | (_ : Sttc_tech.Cell.t) -> ()
            | exception Invalid_argument m ->
                bad name ("no technology cell: " ^ m)
          end)
    g.Graph.nodes;
  List.rev !out

(* ---------- STR006 / STR007: output declarations ---------- *)

let check_dup_name (g : Graph.t) =
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun (name, _) ->
      Hashtbl.replace seen name
        (1 + Option.value (Hashtbl.find_opt seen name) ~default:0))
    g.Graph.outputs;
  Hashtbl.fold
    (fun name count acc ->
      if count > 1 then
        diag r_dup_name ~node:name
          (Printf.sprintf "primary output declared %d times" count)
        :: acc
      else acc)
    seen []
  |> List.sort D.compare

let check_no_output (g : Graph.t) =
  if Array.length g.Graph.outputs = 0 then
    [ diag r_no_output "design has no primary outputs" ]
  else []

(* ---------- driver ---------- *)

let enabled only rule =
  only = []
  || List.exists
       (fun r ->
         let r = String.lowercase_ascii r in
         String.lowercase_ascii rule.id = r
         || String.lowercase_ascii rule.alias = r)
       only

let run ?(only = []) ?(library = Sttc_tech.Library.cmos90) g =
  let packs =
    [
      (r_comb_loop, fun () -> check_comb_loop g);
      (r_undriven, fun () -> check_undriven g);
      (r_multi_driver, fun () -> check_multi_driver g);
      (r_dangling, fun () -> check_dangling g);
      (r_arity, fun () -> check_arity ~library g);
      (r_dup_name, fun () -> check_dup_name g);
      (r_no_output, fun () -> check_no_output g);
    ]
  in
  List.concat_map
    (fun (rule, check) -> if enabled only rule then check () else [])
    packs

let check ?only ?library nl = run ?only ?library (Graph.of_netlist nl)
