(* Flow.protect's own calls, one bench.<layer> span each, under Flow's
   defaults (cmos90, fraction 0.02, no hardening, no semantic gate, STT
   backend).  The RNG is seeded exactly as Flow seeds it, so the replayed
   hybrid is byte-identical to Flow.run's; [fingerprint] is how the
   traced run checks that. *)

module Flow = Sttc_core.Flow
module Hybrid = Sttc_core.Hybrid
module Netlist = Sttc_netlist.Netlist

let span = Workload.span

(* the layers that together make up one Flow.run call *)
let flow_layers =
  [
    "sta.analyze"; "paths.sample"; "select.algorithm"; "select.observable";
    "hybrid.make"; "lint.structural"; "security.evaluate"; "ppa.baseline";
    "ppa.evaluate";
  ]

(* provisioning is not part of Flow.run; the CLI's protect --bitstream
   pays it on top *)
let layers = flow_layers @ [ "provision.bitstream" ]

let protect ~seed algorithm netlist =
  let library = Sttc_tech.Library.cmos90 in
  let backend = Sttc_backend.Backend.stt in
  let rng =
    Sttc_util.Rng.make (seed lxor Hashtbl.hash (Flow.algorithm_name algorithm))
  in
  let sta = span "sta.analyze" (fun () -> Sttc_analysis.Sta.analyze library netlist) in
  let ctx =
    span "paths.sample" (fun () ->
        Sttc_core.Select.prepare ~rng ~fraction:0.02 ~sta library netlist)
  in
  let gates =
    span "select.algorithm" (fun () ->
        match algorithm with
        | Flow.Independent { count } -> Sttc_core.Algorithms.independent ~rng ~count ctx
        | Flow.Dependent -> Sttc_core.Algorithms.dependent ~rng ctx
        | Flow.Parametric options ->
            fst (Sttc_core.Algorithms.parametric_with_meta ~rng ~options ctx))
  in
  let gates =
    span "select.observable" (fun () ->
        let depth = Sttc_netlist.Query.sequential_depth_to_po netlist in
        let observable id = depth.(id) < max_int in
        match List.filter observable gates with
        | _ :: _ as gs -> gs
        | [] -> (
            match List.filter observable (Netlist.gates netlist) with
            | g :: _ -> [ g ]
            | [] -> [ List.hd (Netlist.gates netlist) ]))
  in
  let hybrid = span "hybrid.make" (fun () -> Hybrid.make netlist gates) in
  span "lint.structural" (fun () ->
      let ds = Sttc_lint.Structural.check ~library (Hybrid.programmed hybrid) in
      if Sttc_lint.Diagnostic.errors ds > 0 then
        invalid_arg "replay: hybrid fails structural lint");
  span "security.evaluate" (fun () ->
      ignore
        (Sttc_core.Security.evaluate
           ~constants:
             { Sttc_core.Security.alpha = backend.Sttc_backend.Backend.alpha;
               p = backend.Sttc_backend.Backend.p }
           (Hybrid.foundry_view hybrid) ~luts:(Hybrid.lut_ids hybrid)));
  let baseline =
    span "ppa.baseline" (fun () -> Sttc_core.Ppa.baseline ~sta:ctx.Sttc_core.Select.sta library netlist)
  in
  span "ppa.evaluate" (fun () ->
      ignore
        (Sttc_core.Ppa.evaluate ~baseline library ~base:netlist
           ~hybrid:(Hybrid.programmed hybrid)));
  let bitstream =
    span "provision.bitstream" (fun () ->
        Sttc_core.Provision.to_string (Sttc_core.Provision.of_hybrid hybrid))
  in
  (hybrid, bitstream)

(* SAT sign-off takes minutes at 10^5 gates; 1024 random patterns per
   hybrid keep the gate outside every timed region affordable *)
let random_verify h =
  match Hybrid.verify ~method_:(`Random 1024) h with
  | Sttc_sim.Equiv.Equivalent -> true
  | Sttc_sim.Equiv.Different _ | Sttc_sim.Equiv.Inconclusive _ -> false

let bitstream hybrid = Sttc_core.Provision.to_string (Sttc_core.Provision.of_hybrid hybrid)

(* what a protect run ships: the foundry .bench and the bitstream *)
let fingerprint hybrid bitstream =
  Workload.digest_strings
    [ Sttc_netlist.Bench_io.to_string (Hybrid.foundry_view hybrid); bitstream ]

(* Per-layer metrics of the replayed protect calls: each layer's share of
   the replayed Flow time, the coverage of Flow.run's wall time (its
   traced flow.run spans, which made the calls the probes replayed) by
   the replayed layers, and the protect-path counters ([luts] per
   pass). *)
let layer_metrics (t : Workload.traced) ~luts =
  let self l = Workload.self_s t ("bench." ^ l) in
  let total = List.fold_left (fun acc l -> acc +. self l) 0. flow_layers in
  let flow_run_s = Workload.total_s t "flow.run" in
  let c = t.Workload.probe_counters in
  let per = Workload.per_iteration t in
  List.map (fun l -> Workload.metric (l ^ "_pct") "%" (Workload.share (self l) total)) layers
  @ [
      Workload.metric "protect.layer_coverage" "ratio"
        (if flow_run_s <= 0. then 0. else total /. flow_run_s);
      Workload.metric "protect.luts" "count" (float_of_int luts);
      Workload.metric "select.timing_early_out" "count"
        (per (Workload.count c "select.timing_early_out"));
      Workload.metric "sta.retime.cone" "count" (per (Workload.count c "sta.retime.cone"));
      Workload.metric "sta.retime.cone_nodes_mean" "count"
        (Workload.hist_mean c "sta.retime.cone_nodes");
      Workload.metric "activity.refine.cone" "count"
        (per (Workload.count c "activity.refine.cone"));
      Workload.metric "activity.refine.full" "count"
        (per (Workload.count c "activity.refine.full"));
    ]
