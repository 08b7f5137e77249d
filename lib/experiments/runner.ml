module Flow = Sttc_core.Flow
module Report = Sttc_core.Report
module Profiles = Sttc_netlist.Iscas_profiles
module Budget = Sttc_util.Budget
module Pool = Sttc_util.Pool
module Backend = Sttc_backend.Backend

let master_seed = 20160605 (* DAC'16 *)

(* Every stage below is deterministic in its seed alone, so protecting a
   benchmark on a worker domain gives the same result as on the main
   one. *)
let strict ~seed ?hardening ?backend ?baseline alg nl =
  (Flow.run ~seed ?hardening ?backend ?baseline ~policy:Flow.Strict alg nl)
    .Flow.accepted

(* The unprotected [nl]'s PPA under [backend]'s pricing, computed once by
   a loop that protects [nl] several times and passed to each [strict]. *)
let baseline_of ?(backend = Backend.stt) nl =
  Sttc_core.Ppa.baseline (Backend.eval_library backend) nl

(* ---------- configuration ---------- *)

module Config = struct
  type t = {
    seed : int;
    only : string list option;
    timeout_s : float option;
    isolate : bool;
    jobs : int;
    backend : string;
  }

  let default =
    {
      seed = master_seed;
      only = None;
      timeout_s = None;
      isolate = false;
      jobs = 1;
      backend = "stt";
    }

  let with_seed seed t = { t with seed }
  let with_only names t = { t with only = Some names }
  let with_jobs jobs t = { t with jobs }
end

let quick_benchmarks =
  List.filter_map
    (fun i -> if i.Profiles.n_gates <= 1000 then Some i.Profiles.name else None)
    Profiles.all

(* ---------- the guarded unit of work ---------- *)

let exn_reason = function
  | Invalid_argument m | Failure m -> m
  | e -> Printexc.to_string e

(* A guarded stage either yields a value, overruns its budget, or (when
   isolating) crashes with a captured reason.  The stage budget nests in
   any enclosing one; the enclosing budget's expiry belongs to its owner,
   so the guard polls it on entry and lets it through isolation. *)
let guard ~timeout_s ~isolate ~label f =
  Budget.check ();
  match
    match timeout_s with
    | None -> Ok (f ())
    | Some budget -> (
        match Budget.run ~seconds:budget f with
        | Ok v -> Ok v
        | Error `Timeout ->
            Error (Printf.sprintf "%s: timeout after %.1fs" label budget))
  with
  | outcome -> outcome
  | exception e when isolate ->
      Budget.check ();
      Error (label ^ ": " ^ exn_reason e)

(* One strict protect run under the stage budget: the unit of work of
   both [rows] and the campaign's [run_unit].  Deterministic in [seed]
   alone, so it gives the same result on any domain. *)
let protect_unit ~timeout_s ~isolate ~label ?fraction ?hardening ?backend
    ?baseline ~seed alg netlist =
  guard ~timeout_s ~isolate ~label (fun () ->
      (Flow.run ~seed ?fraction ?hardening ?backend ?baseline
         ~policy:Flow.Strict alg (netlist ()))
        .Flow.accepted)

let timed name f =
  let t0 = Pool.now_s () in
  let v = f () in
  Sttc_obs.Metrics.observe name (Pool.now_s () -. t0);
  v

(* ---------- the paper sweep ---------- *)

(* One body at every job count: a build task per benchmark, then a
   protect task per benchmark x algorithm, then the rows assembled here
   in benchmark order.  [jobs] only reaches the pool, which picks the
   executor: each task depends on [seed] alone, so a pool gives the
   serial rows. *)
let rows (cfg : Config.t) =
  let { Config.seed; only; timeout_s; isolate; jobs; backend } = cfg in
  if jobs < 1 then invalid_arg "Runner.rows: jobs must be >= 1";
  let backend = Backend.find_exn backend in
  let infos =
    match only with
    | Some names ->
        List.iter (fun n -> ignore (Profiles.find_exn n)) names;
        List.filter (fun i -> List.mem i.Profiles.name names) Profiles.all
    | None -> Profiles.all
  in
  let build info =
    Sttc_obs.Metrics.incr "runner.benchmarks";
    let built =
      timed "runner.build_seconds" (fun () ->
          Sttc_obs.Span.with_ "runner.build" ~cat:"experiments"
            ~attrs:[ ("benchmark", info.Profiles.name) ]
            (fun () ->
              guard ~timeout_s ~isolate ~label:"build" (fun () ->
                  let nl = Profiles.build info in
                  (* force the lazy caches while the netlist is still
                     private to this task: the protect tasks read it from
                     several domains *)
                  Sttc_netlist.Netlist.warm nl;
                  (* the unprotected design's PPA, the same for every
                     algorithm: computed once, shared by its protects *)
                  (nl, baseline_of ~backend nl))))
    in
    (info, built)
  in
  let protect (info, (nl, baseline), alg) =
    let name = Flow.algorithm_name alg in
    let outcome =
      timed "runner.protect_seconds" (fun () ->
          Sttc_obs.Span.with_ "runner.protect" ~cat:"experiments"
            ~attrs:[ ("benchmark", info.Profiles.name); ("algorithm", name) ]
            (fun () ->
              protect_unit ~timeout_s ~isolate ~label:"protect" ~backend
                ~baseline ~seed alg (fun () -> nl)))
    in
    (info.Profiles.name, (name, outcome))
  in
  let row protects (info, built) =
    let name = info.Profiles.name in
    Sttc_obs.Span.with_ "runner.row" ~cat:"experiments"
      ~attrs:[ ("benchmark", name) ]
    @@ fun () ->
    let outcomes =
      match built with
      | Ok _ ->
          List.filter_map
            (fun (n, o) -> if n = name then Some o else None)
            protects
      | Error reason ->
          List.map
            (fun alg -> (Flow.algorithm_name alg, Error reason))
            Flow.default_algorithms
    in
    if Result.is_ok built then Sttc_obs.Metrics.incr "runner.rows";
    {
      Report.circuit = name;
      size = info.Profiles.n_gates;
      results =
        List.filter_map
          (function n, Ok r -> Some (n, r) | _, Error _ -> None)
          outcomes;
      failures =
        List.filter_map
          (function n, Error m -> Some (n, m) | _, Ok _ -> None)
          outcomes;
    }
  in
  (* Work in gate-level units, scaled so that 30 000 of them pay for the
     domains: protect + re-simulate cost scales with circuit size times
     the algorithm count.  Small bags (the quick Table I set is ~9k
     units) lose more to domain spawning than they gain, so the pool
     runs them on the calling domain even when the caller asked for
     workers.  Chunks of one task keep a worker from being handed
     several large consecutive units. *)
  let work =
    float_of_int
      (List.fold_left (fun acc i -> acc + i.Profiles.n_gates) 0 infos
      * List.length Flow.default_algorithms)
    /. 30_000.
  in
  let map f xs = Pool.map ~chunk:1 ~work ~jobs f xs in
  let builds = map build infos in
  let units =
    List.concat_map
      (fun (info, built) ->
        match built with
        | Ok nl -> List.map (fun alg -> (info, nl, alg)) Flow.default_algorithms
        | Error _ -> [])
      builds
  in
  let protects = map protect units in
  List.map (row protects) builds

(* ---------- shard-scoped entry points (campaign engine) ---------- *)

let build_circuit name =
  match Profiles.find name with
  | Some info -> Profiles.build info
  | None -> (
      match List.assoc_opt name Sttc_netlist.Iscas_data.all with
      | Some build -> build ()
      | None -> invalid_arg ("unknown benchmark " ^ name))

let run_unit ?timeout_s ?fraction ?hardening ?backend ~seed ~benchmark alg =
  Sttc_obs.Span.with_ "runner.unit" ~cat:"experiments"
    ~attrs:
      [ ("benchmark", benchmark); ("algorithm", Flow.algorithm_name alg) ]
  @@ fun () ->
  timed "runner.unit_seconds" (fun () ->
      protect_unit ~timeout_s ~isolate:true ~label:"run" ?fraction ?hardening
        ?backend ~seed alg (fun () -> build_circuit benchmark))

let fig1 () = Report.fig1 ()
let table1 rows = Report.table1 rows
let table2 rows = Report.table2 rows
let fig3 rows = Report.fig3 rows

let attack_campaign ?(seed = master_seed) () =
  let spec =
    {
      Sttc_netlist.Generator.design_name = "atk80";
      n_pi = 10;
      n_po = 8;
      n_ff = 6;
      n_gates = 80;
      levels = 7;
    }
  in
  let nl = Sttc_netlist.Generator.generate ~seed:11 spec in
  (* force the lazy caches before the campaigns share [nl] and its
     baseline across domains *)
  Sttc_netlist.Netlist.warm nl;
  let baseline = baseline_of nl in
  let campaign alg =
    Sttc_obs.Span.with_ "runner.campaign" ~cat:"experiments"
      ~attrs:[ ("algorithm", Flow.algorithm_name alg) ]
    @@ fun () ->
    let r = strict ~seed ~baseline alg nl in
    let config =
      Sttc_attack.Harness.Config.(
        default |> with_sat_timeout_s 15. |> with_tt_budget 3000
        |> with_guess_rounds 6)
    in
    Sttc_attack.Harness.attack ~config
      ~circuit:spec.Sttc_netlist.Generator.design_name
      ~algorithm:(Flow.algorithm_name alg) r.Flow.hybrid
  in
  Sttc_attack.Harness.to_table (List.map campaign Flow.default_algorithms)

let sidechannel ?(seed = master_seed) () =
  let lib = Sttc_tech.Library.cmos90 in
  let spec =
    {
      Sttc_netlist.Generator.design_name = "dpa120";
      n_pi = 12;
      n_po = 10;
      n_ff = 8;
      n_gates = 120;
      levels = 8;
    }
  in
  let nl = Sttc_netlist.Generator.generate ~seed:21 spec in
  let baseline = baseline_of nl in
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Algorithm", Sttc_util.Table.Left);
          ("Target signal", Sttc_util.Table.Left);
          ("DoM/mean CMOS", Sttc_util.Table.Right);
          ("DoM/mean hybrid", Sttc_util.Table.Right);
          ("Leakage reduction", Sttc_util.Table.Right);
        ]
  in
  List.iter
    (fun alg ->
      let r = strict ~seed ~baseline alg nl in
      let hybrid = Sttc_core.Hybrid.programmed r.Flow.hybrid in
      (* target the first replaced gate's signal: the value the defence
         hides inside an STT LUT *)
      let target =
        Sttc_netlist.Netlist.name hybrid
          (List.hd (Sttc_core.Hybrid.lut_ids r.Flow.hybrid))
      in
      let orig = Sttc_attack.Dpa.measure lib nl ~target in
      let hyb = Sttc_attack.Dpa.measure lib hybrid ~target in
      let reduction =
        Sttc_attack.Dpa.leakage_reduction lib ~original:nl ~hybrid ~target
      in
      Sttc_util.Table.add_row t
        [
          Flow.algorithm_name alg;
          target;
          Printf.sprintf "%.4f" orig.Sttc_attack.Dpa.dom_relative;
          Printf.sprintf "%.4f" hyb.Sttc_attack.Dpa.dom_relative;
          (if reduction = infinity then "inf"
           else Printf.sprintf "%.2fx" reduction);
        ])
    Flow.default_algorithms;
  Sttc_util.Table.render t

let ablation_parametric ?(seed = master_seed) () =
  let nl = Profiles.build_by_name "s1196" in
  let baseline = baseline_of nl in
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Clock factor", Sttc_util.Table.Right);
          ("#STT LUTs", Sttc_util.Table.Right);
          ("Perf %", Sttc_util.Table.Right);
          ("Power %", Sttc_util.Table.Right);
          ("N_dep", Sttc_util.Table.Right);
        ]
  in
  List.iter
    (fun factor ->
      let options =
        {
          Sttc_core.Algorithms.default_parametric with
          Sttc_core.Algorithms.clock_factor = factor;
        }
      in
      let r = strict ~seed ~baseline (Flow.Parametric options) nl in
      Sttc_util.Table.add_row t
        [
          Printf.sprintf "%.2f" factor;
          string_of_int r.Flow.overhead.Sttc_core.Ppa.n_stts;
          Printf.sprintf "%.2f" r.Flow.overhead.Sttc_core.Ppa.performance_pct;
          Printf.sprintf "%.2f" r.Flow.overhead.Sttc_core.Ppa.power_pct;
          Sttc_util.Lognum.to_string r.Flow.security.Sttc_core.Security.n_dep;
        ])
    [ 1.02; 1.05; 1.08; 1.15; 1.30 ];
  Sttc_util.Table.render t

let ablation_hardening ?(seed = master_seed) () =
  let spec =
    {
      Sttc_netlist.Generator.design_name = "hard100";
      n_pi = 10;
      n_po = 8;
      n_ff = 6;
      n_gates = 100;
      levels = 7;
    }
  in
  let nl = Sttc_netlist.Generator.generate ~seed:31 spec in
  let baseline = baseline_of nl in
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Hardening", Sttc_util.Table.Left);
          ("Config bits", Sttc_util.Table.Right);
          ("I", Sttc_util.Table.Right);
          ("N_bf", Sttc_util.Table.Right);
          ("Hill-climb agreement", Sttc_util.Table.Right);
          ("Power %", Sttc_util.Table.Right);
        ]
  in
  let variants =
    [
      ("plain", Flow.no_hardening);
      ("+2 dummy inputs", { Flow.extra_inputs_per_lut = 2; absorb_drivers = false });
      ("+absorb drivers", { Flow.extra_inputs_per_lut = 0; absorb_drivers = true });
      ("both", Flow.hardened);
    ]
  in
  List.iter
    (fun (label, hardening) ->
      let r =
        strict ~seed ~hardening ~baseline (Flow.Independent { count = 5 }) nl
      in
      let g = Sttc_attack.Guess_attack.run ~rounds:5 r.Flow.hybrid in
      Sttc_util.Table.add_row t
        [
          label;
          string_of_int r.Flow.security.Sttc_core.Security.total_config_bits;
          string_of_int r.Flow.security.Sttc_core.Security.accessible_inputs;
          Sttc_util.Lognum.to_string r.Flow.security.Sttc_core.Security.n_bf;
          Printf.sprintf "%.1f%%" (100. *. g.Sttc_attack.Guess_attack.agreement);
          Printf.sprintf "%.2f" r.Flow.overhead.Sttc_core.Ppa.power_pct;
        ])
    variants;
  Sttc_util.Table.render t

let baselines ?(seed = master_seed) () =
  let buf = Buffer.create 2048 in
  (* ---- camouflaging vs STT LUTs: security ---- *)
  let spec =
    {
      Sttc_netlist.Generator.design_name = "base120";
      n_pi = 10;
      n_po = 8;
      n_ff = 6;
      n_gates = 120;
      levels = 8;
    }
  in
  let nl = Sttc_netlist.Generator.generate ~seed:41 spec in
  let rng = Sttc_util.Rng.make seed in
  (* the camouflaged gates, hidden as LUT slots *)
  let stt_hybrid = Sttc_core.Camouflage.random ~rng ~count:5 nl in
  let m = Sttc_core.Hybrid.lut_count stt_hybrid in
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Defence", Sttc_util.Table.Left);
          ("Hidden cells", Sttc_util.Table.Right);
          ("Search space", Sttc_util.Table.Right);
          ("SAT attack", Sttc_util.Table.Left);
          ("Iterations", Sttc_util.Table.Right);
          ("Time (s)", Sttc_util.Table.Right);
        ]
  in
  (* same hidden cells, different candidate family *)
  let foundry = Sttc_core.Hybrid.foundry_view stt_hybrid in
  let luts = Sttc_core.Hybrid.lut_ids stt_hybrid in
  let describe (label, family) =
    let candidates = Sttc_backend.Backend.sat_candidates family foundry luts in
    let verdict, iterations, seconds =
      match Sttc_attack.Sat_attack.run ~timeout_s:20. ~candidates stt_hybrid with
      | Sttc_attack.Sat_attack.Broken b ->
          ("RECOVERED", b.iterations, b.seconds)
      | Sttc_attack.Sat_attack.Exhausted e ->
          ("resisted (" ^ e.reason ^ ")", e.iterations, e.seconds)
    in
    Sttc_util.Table.add_row t
      [
        label;
        string_of_int m;
        Sttc_util.Lognum.to_string
          (Sttc_backend.Backend.search_space family foundry luts);
        verdict;
        string_of_int iterations;
        Printf.sprintf "%.2f" seconds;
      ]
  in
  List.iter describe
    [
      ("camouflaging [12]", Sttc_core.Camouflage.family);
      ("STT LUTs (this paper)", None);
    ];
  Buffer.add_string buf "Camouflaging vs reconfigurable STT LUTs (same hidden cells):\n";
  Buffer.add_string buf (Sttc_util.Table.render t);
  (* ---- SRAM vs STT LUTs: PPA of the same hybrid ---- *)
  let hybrid_nl = Sttc_core.Hybrid.programmed stt_hybrid in
  let t2 =
    Sttc_util.Table.create
      ~headers:
        [
          ("LUT technology", Sttc_util.Table.Left);
          ("Perf %", Sttc_util.Table.Right);
          ("Power %", Sttc_util.Table.Right);
          ("Area %", Sttc_util.Table.Right);
          ("Volatile", Sttc_util.Table.Left);
          ("Bitstream exposed", Sttc_util.Table.Left);
        ]
  in
  List.iter
    (fun (label, style, volatile, exposed) ->
      let lib = Sttc_tech.Library.of_lut_style style in
      let o = Sttc_core.Ppa.evaluate lib ~base:nl ~hybrid:hybrid_nl in
      Sttc_util.Table.add_row t2
        [
          label;
          Printf.sprintf "%.2f" o.Sttc_core.Ppa.performance_pct;
          Printf.sprintf "%.2f" o.Sttc_core.Ppa.power_pct;
          Printf.sprintf "%.2f" o.Sttc_core.Ppa.area_pct;
          volatile;
          exposed;
        ])
    [
      ("STT (non-volatile)", Sttc_tech.Library.Stt, "no", "never leaves the die");
      ( "SRAM [8]",
        Sttc_tech.Library.Sram,
        "yes",
        "readable from external NVM at every power-up" );
    ];
  Buffer.add_string buf
    "\nSRAM-based LUTs [8] vs STT LUTs (same hybrid netlist):\n";
  Buffer.add_string buf (Sttc_util.Table.render t2);
  Buffer.contents buf

let ablation_constants ?(seed = master_seed) () =
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Circuit", Sttc_util.Table.Left);
          ("N_dep (paper constants)", Sttc_util.Table.Right);
          ("N_dep (computed)", Sttc_util.Table.Right);
          ("log10 gap", Sttc_util.Table.Right);
        ]
  in
  List.iter
    (fun name ->
      let nl = Profiles.build_by_name name in
      let r = strict ~seed Flow.Dependent nl in
      let foundry = Sttc_core.Hybrid.foundry_view r.Flow.hybrid in
      let luts = Sttc_core.Hybrid.lut_ids r.Flow.hybrid in
      let rp =
        Sttc_core.Security.evaluate
          ~constants:Sttc_core.Security.paper_constants foundry ~luts
      in
      let rc =
        Sttc_core.Security.evaluate
          ~constants:Sttc_core.Security.computed_constants foundry ~luts
      in
      let lp = Sttc_util.Lognum.log10 rp.Sttc_core.Security.n_dep in
      let lc = Sttc_util.Lognum.log10 rc.Sttc_core.Security.n_dep in
      Sttc_util.Table.add_row t
        [
          name;
          Sttc_util.Lognum.to_string rp.Sttc_core.Security.n_dep;
          Sttc_util.Lognum.to_string rc.Sttc_core.Security.n_dep;
          Printf.sprintf "%.1f" (lc -. lp);
        ])
    [ "s641"; "s953"; "s1238" ];
  Sttc_util.Table.render t

(* ---------- fault-injection sweep (beyond paper) ---------- *)

module Provision = Sttc_core.Provision
module Mtj = Sttc_fault.Mtj

let outcome_label = function
  | Provision.Programmed -> "programmed"
  | Provision.Degraded { corrected_bits; spared_bits } ->
      Printf.sprintf "degraded (%dc/%ds)" corrected_bits spared_bits
  | Provision.Failed cause ->
      "FAILED (" ^ Provision.failure_to_string cause ^ ")"

let fault_sweep ?(seed = master_seed) ?(bench = "s641")
    ?(rates = [ 1e-4; 1e-3; 1e-2; 5e-2 ])
    ?(stuck_rate = 0.) ?(dies = 12)
    ?(resilience = Provision.default_resilience) ?(jobs = 1) () =
  Sttc_obs.Span.with_ "runner.fault_sweep" ~cat:"experiments"
    ~attrs:[ ("bench", bench) ]
  @@ fun () ->
  let nl = Profiles.build_by_name bench in
  let algorithm = Flow.Dependent in
  let r = strict ~seed algorithm nl in
  let hybrid = r.Flow.hybrid in
  let foundry = Sttc_core.Hybrid.foundry_view hybrid in
  let entries = Provision.of_hybrid hybrid in
  let ideal = Provision.programming_cost hybrid in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "fault sweep: %s / %s, %d LUTs, %d config bits, %d dies per rate\n\
        resilience: %d retries%s%s, %d spare rows per LUT\n"
       bench (Flow.algorithm_name algorithm)
       (Sttc_core.Hybrid.lut_count hybrid)
       ideal.Provision.mtj_cells dies resilience.Provision.retry_budget
       (if resilience.Provision.escalate then " (escalating current)" else "")
       (if resilience.Provision.ecc then ", ECC" else ", no ECC")
       resilience.Provision.spare_rows);
  (* detail: one die per rate, zero-retry vs resilient, on the same die *)
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Write-err rate", Sttc_util.Table.Right);
          ("Provisioner", Sttc_util.Table.Left);
          ("Outcome", Sttc_util.Table.Left);
          ("Retried", Sttc_util.Table.Right);
          ("Corrected", Sttc_util.Table.Right);
          ("Spared", Sttc_util.Table.Right);
          ("Attempts", Sttc_util.Table.Right);
          ("Energy ovh", Sttc_util.Table.Right);
          ("Sign-off", Sttc_util.Table.Left);
        ]
  in
  let sign_off report =
    match report.Provision.view with
    | None -> "-"
    | Some view -> (
        match Sttc_sim.Equiv.check_sat nl view with
        | Sttc_sim.Equiv.Equivalent -> "equivalent"
        | Sttc_sim.Equiv.Different f -> "DIFFERS at " ^ f.Sttc_sim.Equiv.signal
        | Sttc_sim.Equiv.Inconclusive m -> "inconclusive: " ^ m)
  in
  let detail rate =
    let spec =
      Mtj.spec ~write_error_rate:rate ~stuck_cell_rate:stuck_rate ()
    in
    List.iter
      (fun (label, res) ->
        (* same channel seed: both provisioners face the same die *)
        let channel = Mtj.channel ~seed spec in
        let report = Provision.program ~resilience:res ~channel foundry entries in
        Sttc_util.Table.add_row t
          [
            Printf.sprintf "%.0e" rate;
            label;
            outcome_label report.Provision.outcome;
            string_of_int report.Provision.retried_bits;
            string_of_int report.Provision.corrected_bits;
            string_of_int report.Provision.spared_bits;
            string_of_int report.Provision.write_attempts;
            Printf.sprintf "%+.1f%%"
              (100.
               *. (report.Provision.cost.Provision.write_energy_nj
                   /. ideal.Provision.write_energy_nj
                  -. 1.));
            sign_off report;
          ])
      [ ("zero-retry", Provision.no_resilience); ("resilient", resilience) ];
    Sttc_util.Table.add_separator t
  in
  List.iter detail rates;
  Buffer.add_string buf (Sttc_util.Table.render t);
  (* yield: many dies per rate.  Every die's channel seed is derived up
     front from the master seed, so the table is identical at any job
     count; the dies of each rate are one pool bag. *)
  let t2 =
    Sttc_util.Table.create
      ~headers:
        [
          ("Write-err rate", Sttc_util.Table.Right);
          ("Yield zero-retry", Sttc_util.Table.Right);
          ("Yield resilient", Sttc_util.Table.Right);
          ("Mean extra attempts", Sttc_util.Table.Right);
        ]
  in
  let ok report =
    match report.Provision.outcome with
    | Provision.Programmed | Provision.Degraded _ -> true
    | Provision.Failed _ -> false
  in
  let yield_row rate =
    let spec =
      Mtj.spec ~write_error_rate:rate ~stuck_cell_rate:stuck_rate ()
    in
    let one_die die =
      let die_seed = seed + (7919 * die) in
      let ch0 = Mtj.channel ~seed:die_seed spec in
      let r0 =
        Provision.program ~resilience:Provision.no_resilience ~channel:ch0
          foundry entries
      in
      let ch1 = Mtj.channel ~seed:die_seed spec in
      let r1 = Provision.program ~resilience ~channel:ch1 foundry entries in
      ( (if ok r0 then 1 else 0),
        (if ok r1 then 1 else 0),
        r1.Provision.write_attempts - ideal.Provision.mtj_cells )
    in
    let good0, good1, extra =
      List.fold_left
        (fun (a, b, c) (x, y, z) -> (a + x, b + y, c + z))
        (0, 0, 0)
        (Pool.map ~jobs one_die (List.init dies Fun.id))
    in
    Sttc_util.Table.add_row t2
      [
        Printf.sprintf "%.0e" rate;
        Printf.sprintf "%d/%d" good0 dies;
        Printf.sprintf "%d/%d" good1 dies;
        Printf.sprintf "%.1f" (float_of_int extra /. float_of_int dies);
      ]
  in
  (* the dies read the foundry view from several domains *)
  Sttc_netlist.Netlist.warm foundry;
  List.iter yield_row rates;
  Buffer.add_string buf "\nprogramming yield over dies:\n";
  Buffer.add_string buf (Sttc_util.Table.render t2);
  Buffer.contents buf

let sweep nl ~counts =
  let baseline = baseline_of nl in
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("#STT LUTs", Sttc_util.Table.Right);
          ("Perf %", Sttc_util.Table.Right);
          ("Power %", Sttc_util.Table.Right);
          ("Area %", Sttc_util.Table.Right);
          ("N_indep", Sttc_util.Table.Right);
          ("N_dep", Sttc_util.Table.Right);
          ("N_bf", Sttc_util.Table.Right);
        ]
  in
  List.iter
    (fun count ->
      let r =
        strict ~seed:master_seed ~baseline (Flow.Independent { count }) nl
      in
      let o = r.Flow.overhead and s = r.Flow.security in
      Sttc_util.Table.add_row t
        [
          string_of_int o.Sttc_core.Ppa.n_stts;
          Printf.sprintf "%.2f" o.Sttc_core.Ppa.performance_pct;
          Printf.sprintf "%.2f" o.Sttc_core.Ppa.power_pct;
          Printf.sprintf "%.2f" o.Sttc_core.Ppa.area_pct;
          Sttc_util.Lognum.to_string s.Sttc_core.Security.n_indep;
          Sttc_util.Lognum.to_string s.Sttc_core.Security.n_dep;
          Sttc_util.Lognum.to_string s.Sttc_core.Security.n_bf;
        ])
    counts;
  Sttc_util.Table.render t
