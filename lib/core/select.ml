module Netlist = Sttc_netlist.Netlist
module Transform = Sttc_netlist.Transform
module Paths = Sttc_analysis.Paths
module Sta = Sttc_analysis.Sta
module Metrics = Sttc_obs.Metrics

type context = {
  netlist : Netlist.t;
  sta : Sta.t;
  paths : Paths.io_path list;
  overlay : Transform.Overlay.t;
  trial : Sta.trial;
  feeds_endpoint : bool array;
  target_mark : bool array;
}

(* Nodes inside some endpoint's combinational fanin cone: replacing a gate
   outside this set cannot move any endpoint arrival.  Iterative walk —
   scale-family netlists reach 10^6 nodes. *)
let endpoint_cone nl sta =
  let marked = Array.make (Netlist.node_count nl) false in
  let stack = Sttc_util.Growable.create () in
  List.iter
    (fun (ep, _) ->
      if not marked.(ep) then begin
        marked.(ep) <- true;
        ignore (Sttc_util.Growable.push stack ep)
      end)
    (Sta.endpoint_arrivals sta);
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

let prepare ~rng ?(fraction = 0.02) ?(min_ffs = 2) ?sta library netlist =
  let sta =
    match sta with
    | Some s when Sta.netlist s == netlist -> s
    | Some _ | None -> Sta.analyze library netlist
  in
  let critical = Sta.critical_path sta in
  let paths =
    Paths.sample ~rng ~fraction ~min_ffs ~exclude_critical:critical netlist
  in
  {
    netlist;
    sta;
    paths;
    overlay = Transform.Overlay.create netlist;
    trial = Sta.trial library sta;
    feeds_endpoint = endpoint_cone netlist sta;
    target_mark = Array.make (Netlist.node_count netlist) false;
  }

let replaceable ctx path =
  List.filter
    (fun id ->
      match Netlist.kind ctx.netlist id with
      | Netlist.Gate _ -> true
      | _ -> false)
    path.Paths.nodes

let pool ctx =
  let seen = Hashtbl.create 64 in
  List.concat_map (fun p -> replaceable ctx p) ctx.paths
  |> List.filter (fun id ->
         if Hashtbl.mem seen id then false
         else begin
           Hashtbl.add seen id ();
           true
         end)

(* [sync ctx target] reconciles the persistent trial session with the
   requested replacement set: the overlay's staged set is diffed against
   [target] and only the delta is re-propagated, so a selection loop
   whose accumulated set grows into the hundreds still pays per query
   for the few gates that changed — not for the union cone.

   Gates outside every endpoint cone are staged but never propagated:
   their arrival changes cannot reach an endpoint, and neither the delay
   query nor the worst-path walk ever reads an arrival outside the
   endpoint cones (a cone is closed under combinational fanins, so a
   node inside never has a fanin outside).  A sync whose whole delta is
   skippable answers from the session's current heap at zero
   propagation cost (counter [select.timing_early_out]). *)
let sync ctx target =
  let ov = ctx.overlay in
  let mark = ctx.target_mark in
  List.iter
    (fun g ->
      if g < 0 || g >= Array.length mark then
        invalid_arg "Select: node id out of range";
      mark.(g) <- true)
    target;
  let removed =
    List.filter (fun g -> not mark.(g)) (Transform.Overlay.staged ov)
  in
  let added =
    List.filter (fun g -> not (Transform.Overlay.is_staged ov g)) target
  in
  List.iter (fun g -> mark.(g) <- false) target;
  match (added, removed) with
  | [], [] -> ()
  | _ -> (
      List.iter (Transform.Overlay.unstage ov) removed;
      Transform.Overlay.stage_all ov added;
      match
        List.filter
          (fun g -> ctx.feeds_endpoint.(g))
          (List.rev_append removed added)
      with
      | [] -> Metrics.incr "select.timing_early_out"
      | seeds ->
          ignore
            (Sta.trial_advance ctx.trial ~kind_of:(Transform.Overlay.kind ov)
               seeds))

let trial_critical ctx gates =
  sync ctx gates;
  Sta.trial_current_critical ctx.trial

let timing_ok ctx ~clock_ps gates =
  sync ctx gates;
  Sta.trial_current_delay_ps ctx.trial <= clock_ps
