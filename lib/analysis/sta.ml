module Netlist = Sttc_netlist.Netlist
module Library = Sttc_tech.Library
module Metrics = Sttc_obs.Metrics

type t = {
  netlist : Netlist.t;
  arrival : float array;
  critical_end : Netlist.node_id;
  critical : float;
  endpoint_ids : Netlist.node_id array; (* ascending, deduplicated *)
}

let endpoint_ids_of nl =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun ff -> Hashtbl.replace tbl (Netlist.fanins nl ff).(0) ())
    (Netlist.dffs nl);
  List.iter (fun po -> Hashtbl.replace tbl po ()) (Netlist.pos nl);
  let ids = Array.of_list (Hashtbl.fold (fun id () acc -> id :: acc) tbl []) in
  Array.sort Int.compare ids;
  ids

(* A node's output arrival given the arrivals of its fanins — the one
   arithmetic shared by [analyze], [retime] and the trial engine, so the
   incremental paths reproduce the from-scratch floats exactly. *)
let node_arrival lib nl arrival id kind =
  match kind with
  | Netlist.Pi | Netlist.Const _ -> 0.
  | Netlist.Dff ->
      (* launch at clk-to-q; the D-input arrival is an endpoint, not part
         of this node's output arrival *)
      (Library.dff_cell lib).Sttc_tech.Cell.delay_ps
  | Netlist.Gate _ | Netlist.Lut _ ->
      let worst = ref 0. in
      Array.iter
        (fun src -> if arrival.(src) > !worst then worst := arrival.(src))
        (Netlist.fanins nl id);
      !worst +. Library.node_delay_ps lib kind

(* The worst endpoint; exact-tie arrivals break towards the smaller node
   id (the first in ascending order) so full and incremental analyses
   agree bit for bit. *)
let finish nl arrival endpoint_ids =
  if Array.length endpoint_ids = 0 then
    invalid_arg "Sta.analyze: netlist has no endpoints";
  let worst = ref endpoint_ids.(0) in
  Array.iter
    (fun id -> if arrival.(id) > arrival.(!worst) then worst := id)
    endpoint_ids;
  {
    netlist = nl;
    arrival;
    critical_end = !worst;
    critical = arrival.(!worst);
    endpoint_ids;
  }

let analyze lib nl =
  let n = Netlist.node_count nl in
  let arrival = Array.make n 0. in
  Array.iter
    (fun id -> arrival.(id) <- node_arrival lib nl arrival id (Netlist.kind nl id))
    (Netlist.topo_order nl);
  finish nl arrival (endpoint_ids_of nl)

let netlist t = t.netlist

let arrival_ps t id =
  if id < 0 || id >= Array.length t.arrival then invalid_arg "Sta.arrival_ps";
  t.arrival.(id)

let critical_delay_ps t = t.critical

(* Walk backward from an endpoint through the fanin with the worst
   arrival until a source is reached. *)
let path_to_arrivals nl arrival endpoint =
  let rec go id acc =
    let acc = id :: acc in
    if Netlist.is_combinational (Netlist.kind nl id) then begin
      let fanins = Netlist.fanins nl id in
      let best = ref fanins.(0) in
      Array.iter
        (fun src -> if arrival.(src) > arrival.(!best) then best := src)
        fanins;
      go !best acc
    end
    else acc
  in
  go endpoint []

let path_to t endpoint = path_to_arrivals t.netlist t.arrival endpoint
let critical_path t = path_to t t.critical_end

let max_frequency_ghz t =
  if t.critical <= 0. then infinity else 1000. /. t.critical

(* ---------- the incremental engine ---------- *)

(* Worklist: a binary min-heap of node ids keyed by topological position.
   Popping in topo order guarantees every fanin of a popped node is final,
   so each cone node is recomputed at most once per propagation. *)
module Work = struct
  type h = {
    pos : int array; (* topo position of every node *)
    mutable heap : int array;
    mutable len : int;
  }

  let create pos = { pos; heap = Array.make 64 0; len = 0 }

  let push h id =
    if h.len = Array.length h.heap then begin
      let bigger = Array.make (2 * h.len) 0 in
      Array.blit h.heap 0 bigger 0 h.len;
      h.heap <- bigger
    end;
    let i = ref h.len in
    h.len <- h.len + 1;
    while
      !i > 0 && h.pos.(h.heap.(((!i - 1) / 2))) > h.pos.(id)
    do
      h.heap.(!i) <- h.heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.heap.(!i) <- id

  let pop h =
    let top = h.heap.(0) in
    h.len <- h.len - 1;
    let last = h.heap.(h.len) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      h.heap.(!i) <- last;
      if l < h.len && h.pos.(h.heap.(l)) < h.pos.(h.heap.(!smallest)) then
        smallest := l;
      if r < h.len && h.pos.(h.heap.(r)) < h.pos.(h.heap.(!smallest)) then
        smallest := r;
      if !smallest = !i then continue := false
      else begin
        h.heap.(!i) <- h.heap.(!smallest);
        i := !smallest
      end
    done;
    top
end

let positions_of nl =
  let pos = Array.make (Netlist.node_count nl) 0 in
  Array.iteri (fun i id -> pos.(id) <- i) (Netlist.topo_order nl);
  pos

(* Recompute arrivals over the forward cone of [seeds], reading kinds
   through [kind_of] and structure (fanins, fanouts, Dff-ness) from the
   id-compatible [nl].  [on_change id] is called after each arrival
   write.  Returns the number of cone nodes popped. *)
let propagate lib nl arrival work queued ~kind_of ~on_change seeds =
  let n = Array.length arrival in
  List.iter
    (fun id ->
      if id < 0 || id >= n then invalid_arg "Sta: node id out of range";
      if not queued.(id) then begin
        queued.(id) <- true;
        Work.push work id
      end)
    seeds;
  let cone = ref 0 in
  while work.Work.len > 0 do
    let id = Work.pop work in
    queued.(id) <- false;
    incr cone;
    let a = node_arrival lib nl arrival id (kind_of id) in
    if a <> arrival.(id) then begin
      arrival.(id) <- a;
      on_change id;
      List.iter
        (fun out ->
          (* a flip-flop's output arrival is independent of its D input:
             sequential edges never propagate *)
          match Netlist.kind nl out with
          | Netlist.Dff -> ()
          | _ ->
              if not queued.(out) then begin
                queued.(out) <- true;
                Work.push work out
              end)
        (Netlist.fanouts nl id)
    end
  done;
  !cone

let retime lib t nl =
  match Netlist.kind_delta t.netlist nl with
  | None ->
      (* structurally different: the cached cone machinery does not apply *)
      Metrics.incr "sta.retime.full";
      analyze lib nl
  | Some delta ->
      let arrival = Array.copy t.arrival in
      let work = Work.create (positions_of t.netlist) in
      let queued = Array.make (Array.length arrival) false in
      let cone =
        propagate lib t.netlist arrival work queued
          ~kind_of:(fun id -> Netlist.kind nl id)
          ~on_change:ignore delta
      in
      Metrics.incr "sta.retime.cone";
      Metrics.observe "sta.retime.cone_nodes" (float_of_int cone);
      finish nl arrival t.endpoint_ids

(* ---------- trial sessions ---------- *)

type trial = {
  lib : Library.t;
  base : t;
  arr : float array;
  (* the current speculative arrivals: the base netlist with every gate
     of [set] replaced by a LUT *)
  work : Work.h;
  queued : bool array;
  is_endpoint : bool array;
  feeds_endpoint : bool array;
  (* per node: inside some endpoint's combinational fanin cone *)
  replaced : bool array;
  mutable set : Netlist.node_id list;  (* the replaced gates, no repeats *)
  mark : bool array;  (* scratch for diffing a requested set *)
  (* lazy-deletion max-heap over endpoint (arrival, id); an entry is valid
     iff it matches the endpoint's current arrival.  Every endpoint update
     pushes, so the best valid entry is always present. *)
  mutable ep_val : float array;
  mutable ep_id : int array;
  mutable ep_len : int;
}

(* max-heap order: higher arrival first, ties to the smaller id —
   mirrors [finish]. *)
let ep_before v1 i1 v2 i2 = v1 > v2 || (v1 = v2 && i1 < i2)

let ep_push tr v id =
  if tr.ep_len = Array.length tr.ep_val then begin
    let grow a z =
      let b = Array.make (2 * Array.length a) z in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    tr.ep_val <- grow tr.ep_val 0.;
    tr.ep_id <- grow tr.ep_id 0
  end;
  let i = ref tr.ep_len in
  tr.ep_len <- tr.ep_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if ep_before v id tr.ep_val.(p) tr.ep_id.(p) then begin
      tr.ep_val.(!i) <- tr.ep_val.(p);
      tr.ep_id.(!i) <- tr.ep_id.(p);
      i := p
    end
    else continue := false
  done;
  tr.ep_val.(!i) <- v;
  tr.ep_id.(!i) <- id

let ep_pop_root tr =
  tr.ep_len <- tr.ep_len - 1;
  let v = tr.ep_val.(tr.ep_len) and id = tr.ep_id.(tr.ep_len) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let best = ref (-1) in
    let bv = ref v and bi = ref id in
    if l < tr.ep_len && ep_before tr.ep_val.(l) tr.ep_id.(l) !bv !bi then begin
      best := l;
      bv := tr.ep_val.(l);
      bi := tr.ep_id.(l)
    end;
    if r < tr.ep_len && ep_before tr.ep_val.(r) tr.ep_id.(r) !bv !bi then
      best := r;
    if !best < 0 then begin
      if tr.ep_len > 0 then begin
        tr.ep_val.(!i) <- v;
        tr.ep_id.(!i) <- id
      end;
      continue := false
    end
    else begin
      tr.ep_val.(!i) <- tr.ep_val.(!best);
      tr.ep_id.(!i) <- tr.ep_id.(!best);
      i := !best
    end
  done

let ep_rebuild tr =
  tr.ep_len <- 0;
  Array.iter (fun id -> ep_push tr tr.arr.(id) id) tr.base.endpoint_ids

(* Discard stale entries until the root reflects a current arrival. *)
let rec ep_best tr =
  if tr.ep_len = 0 then invalid_arg "Sta.trial: no endpoints"
  else
    let v = tr.ep_val.(0) and id = tr.ep_id.(0) in
    if tr.arr.(id) = v then (id, v)
    else begin
      ep_pop_root tr;
      ep_best tr
    end

(* Nodes inside some endpoint's combinational fanin cone: replacing a gate
   outside this set cannot move any endpoint arrival.  Iterative walk —
   scale-family netlists reach 10^6 nodes. *)
let endpoint_cone nl endpoint_ids =
  let marked = Array.make (Netlist.node_count nl) false in
  let stack = Sttc_util.Growable.create () in
  Array.iter
    (fun ep ->
      marked.(ep) <- true;
      ignore (Sttc_util.Growable.push stack ep))
    endpoint_ids;
  while not (Sttc_util.Growable.is_empty stack) do
    let id = Sttc_util.Growable.pop stack in
    if Netlist.is_combinational (Netlist.kind nl id) then
      Array.iter
        (fun src ->
          if not marked.(src) then begin
            marked.(src) <- true;
            ignore (Sttc_util.Growable.push stack src)
          end)
        (Netlist.fanins nl id)
  done;
  marked

let trial lib t =
  let n = Array.length t.arrival in
  let is_endpoint = Array.make n false in
  Array.iter (fun id -> is_endpoint.(id) <- true) t.endpoint_ids;
  let tr =
    {
      lib;
      base = t;
      arr = Array.copy t.arrival;
      work = Work.create (positions_of t.netlist);
      queued = Array.make n false;
      is_endpoint;
      feeds_endpoint = endpoint_cone t.netlist t.endpoint_ids;
      replaced = Array.make n false;
      set = [];
      mark = Array.make n false;
      ep_val = Array.make (max 64 (Array.length t.endpoint_ids)) 0.;
      ep_id = Array.make (max 64 (Array.length t.endpoint_ids)) 0;
      ep_len = 0;
    }
  in
  ep_rebuild tr;
  tr

(* Bound heap garbage: stale entries stay at most a small multiple of
   the endpoint count before a rebuild resets them. *)
let ep_gc tr =
  if tr.ep_len > max 1024 (8 * Array.length tr.base.endpoint_ids) then
    ep_rebuild tr

(* A replaced gate is a config-free LUT of the same arity: cell delay
   depends only on arity, so timing through this view matches the
   committed hybrid exactly. *)
let trial_kind tr id =
  let nl = tr.base.netlist in
  if tr.replaced.(id) then
    Netlist.Lut { arity = Array.length (Netlist.fanins nl id); config = None }
  else Netlist.kind nl id

(* [trial_set] diffs the requested set against the current one and
   re-propagates only the delta, so a selection loop whose accumulated
   set grows into the hundreds pays per query for the few gates that
   changed, not for the union cone.

   Gates outside every endpoint cone change state but are never
   propagated: their arrival changes cannot reach an endpoint, and
   neither the delay query nor the worst-path walk ever reads an arrival
   outside the endpoint cones (a cone is closed under combinational
   fanins, so a node inside never has a fanin outside).  A delta that is
   wholly skippable answers from the current heap at zero propagation
   cost (counter [select.timing_early_out]). *)
let trial_set tr target =
  let nl = tr.base.netlist in
  let n = Array.length tr.arr in
  List.iter
    (fun g ->
      if g < 0 || g >= n then invalid_arg "Sta.trial_set: node id out of range";
      match Netlist.kind nl g with
      | Netlist.Gate _ -> ()
      | _ -> invalid_arg "Sta.trial_set: not a gate")
    target;
  let set =
    List.fold_left
      (fun acc g ->
        if tr.mark.(g) then acc
        else begin
          tr.mark.(g) <- true;
          g :: acc
        end)
      [] target
  in
  let removed = List.filter (fun g -> not tr.mark.(g)) tr.set in
  let added = List.filter (fun g -> not tr.replaced.(g)) set in
  List.iter (fun g -> tr.mark.(g) <- false) set;
  tr.set <- set;
  match (added, removed) with
  | [], [] -> ()
  | _ -> (
      List.iter (fun g -> tr.replaced.(g) <- false) removed;
      List.iter (fun g -> tr.replaced.(g) <- true) added;
      match
        List.filter
          (fun g -> tr.feeds_endpoint.(g))
          (List.rev_append removed added)
      with
      | [] -> Metrics.incr "select.timing_early_out"
      | seeds ->
          let touched = ref [] in
          let cone =
            propagate tr.lib nl tr.arr tr.work tr.queued
              ~kind_of:(trial_kind tr)
              ~on_change:(fun id ->
                if tr.is_endpoint.(id) then touched := id :: !touched)
              seeds
          in
          List.iter (fun id -> ep_push tr tr.arr.(id) id) !touched;
          Metrics.incr "sta.retime.cone";
          Metrics.observe "sta.retime.cone_nodes" (float_of_int cone);
          ep_gc tr)

let trial_current_delay_ps tr = snd (ep_best tr)

let trial_current_critical tr =
  let id, v = ep_best tr in
  (v, path_to_arrivals tr.base.netlist tr.arr id)
