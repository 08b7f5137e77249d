(* protect-par and protect-dep: Flow.run on one 10^5-gate s-like family
   member, with parametric selection (clock factor 1.02) and with
   dependent selection.  Parametric spends a large share of its call in
   selection, dependent almost none, so a selection change has its
   mechanism case on protect-par and its bypass case on protect-dep.

   The netlist is the family member at the paper's master seed and the
   workload seed drives selection.  Netlist structure moves the call
   time more than selection does: across seeds 101-110 the spread
   (IQR / median) of a parametric + dependent pass is 15% when the seed
   picks the netlist and 5.5% when it picks the selection. *)

module Flow = Sttc_core.Flow
module Hybrid = Sttc_core.Hybrid

let setup ~kind ~algorithm { Workload.toy; seed; _ } =
  let gates = if toy then 1_000 else 100_000 in
  let netlist =
    Sttc_netlist.Generator.generate_family ~seed:Sttc_experiments.Runner.master_seed ~gates ()
  in
  (* the first call's hybrid and its fingerprint; every later call must
     select the same LUTs *)
  let first = ref None in
  let fingerprint () =
    match !first with Some (_, fp) -> Lazy.force fp | None -> "none"
  in
  let replayed = ref [] in
  let pass () =
    let op, hybrid =
      Workload.timed kind (fun () ->
          (Flow.run ~seed ~policy:Flow.Strict algorithm netlist).Flow.accepted.Flow.hybrid)
    in
    match (hybrid, !first) with
    | None, _ -> [ op ]
    | Some h, None ->
        first := Some (h, lazy (Replay.fingerprint h (Replay.bitstream h)));
        [ op ]
    | Some h, Some (h0, _) -> [ { op with ok = Hybrid.lut_ids h = Hybrid.lut_ids h0 } ]
  in
  let probe () =
    let h, bits = Replay.protect ~seed algorithm netlist in
    replayed := ("replay fingerprint", Replay.fingerprint h bits = fingerprint ()) :: !replayed
  in
  let checks () =
    ( "random-1024 verify",
      match !first with Some (h, _) -> Replay.random_verify h | None -> false )
    :: List.rev !replayed
  in
  let luts () = match !first with Some (h, _) -> Hybrid.lut_count h | None -> 0 in
  {
    Workload.pass;
    probe;
    checks;
    digest = (fun () -> Workload.digest_strings [ fingerprint () ]);
    op_ms = Workload.pass_op_ms;
    user_metrics = (fun _ -> []);
    layer_metrics = (fun t -> Replay.layer_metrics t ~luts:(luts ()));
    peak_rss_mb = Workload.self_rss_mb;
    close = ignore;
  }

let workload ~name ~kind ~why algorithm =
  {
    Workload.name;
    why;
    op = "one Flow.run call";
    jobs = 1;
    layers = kind :: Replay.layers;
    setup = setup ~kind ~algorithm;
  }

let par =
  workload ~name:"protect-par" ~kind:"protect.par"
    ~why:
      "10^5-gate Flow.run with parametric selection (clock factor 1.02): \
       STA, paths, PPA, security, and selection's incremental timing"
    (Flow.Parametric { Sttc_core.Algorithms.default_parametric with clock_factor = 1.02 })

let dep =
  workload ~name:"protect-dep" ~kind:"protect.dep"
    ~why:
      "the same netlist with dependent selection, which spends almost no \
       time selecting: the bypass case of every selection change"
    Flow.Dependent
