(* End-to-end integration tests: the whole Figure 2 flow on ISCAS'89
   structural twins, file-format interop between stages, and the
   experiment runner that regenerates the paper's tables. *)

module Netlist = Sttc_netlist.Netlist
module Bench_io = Sttc_netlist.Bench_io
module Profiles = Sttc_netlist.Iscas_profiles
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Hybrid = Sttc_core.Hybrid
module Runner = Sttc_experiments.Runner

let lib = Sttc_tech.Library.cmos90

(* full flow: generate -> write .bench -> reparse -> protect -> write
   hybrid .bench -> reparse -> program -> verify *)
let test_flow_through_files () =
  let nl = Profiles.build_by_name "s820" in
  let tmp1 = Filename.temp_file "sttc_base" ".bench" in
  Bench_io.write_file tmp1 nl;
  let nl2 = Bench_io.parse_file tmp1 in
  (match Sttc_sim.Equiv.check_sat nl nl2 with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "write/parse must preserve semantics");
  let r = protect ~seed:1 (Flow.Independent { count = 5 }) nl2 in
  let tmp2 = Filename.temp_file "sttc_hybrid" ".bench" in
  Bench_io.write_file tmp2 (Hybrid.foundry_view r.Flow.hybrid);
  let foundry = Bench_io.parse_file tmp2 in
  Alcotest.(check int) "luts survive the file" 5
    (List.length (Netlist.luts foundry));
  (* program the reparsed foundry view with the bitstream, matching by
     name since reparsing renumbers nodes *)
  let configs =
    List.map
      (fun (id, c) ->
        (Netlist.find_exn foundry
           (Netlist.name (Hybrid.foundry_view r.Flow.hybrid) id), c))
      (Hybrid.bitstream r.Flow.hybrid)
  in
  let programmed = Sttc_netlist.Transform.program_luts foundry configs in
  (match Sttc_sim.Equiv.check_sat nl programmed with
  | Sttc_sim.Equiv.Equivalent -> ()
  | Sttc_sim.Equiv.Different f ->
      Alcotest.fail ("programmed file differs at " ^ f.Sttc_sim.Equiv.signal)
  | Sttc_sim.Equiv.Inconclusive m -> Alcotest.fail m);
  Sys.remove tmp1;
  Sys.remove tmp2

let test_all_profiles_protect_and_signoff () =
  (* every small benchmark x every algorithm: flow completes and the
     programmed hybrid simulates identically to the original *)
  List.iter
    (fun info ->
      if info.Profiles.n_gates <= 700 then begin
        let nl = Profiles.build info in
        List.iter
          (fun alg ->
            let r = protect ~seed:11 alg nl in
            Alcotest.(check bool)
              (info.Profiles.name ^ "/" ^ Flow.algorithm_name alg)
              true
              (Hybrid.verify ~method_:(`Random 4096) r.Flow.hybrid
               = Sttc_sim.Equiv.Equivalent))
          Flow.default_algorithms
      end)
    Profiles.all

let test_verilog_emission_for_hybrid () =
  let nl = Profiles.build_by_name "s820" in
  let r = protect ~seed:2 Flow.Dependent nl in
  let v = Sttc_netlist.Verilog_out.to_string (Hybrid.programmed r.Flow.hybrid) in
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = (i + n <= h) && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module" true (contains "module s820");
  Alcotest.(check bool) "stt lut instances" true (contains "STT_LUT")

let test_overheads_decrease_with_size () =
  (* the central Table I trend: independent-selection overheads shrink as
     the circuit grows *)
  let overhead name =
    let nl = Profiles.build_by_name name in
    let r = protect ~seed:Runner.master_seed (Flow.Independent { count = 5 }) nl in
    (r.Flow.overhead.Sttc_core.Ppa.power_pct, r.Flow.overhead.Sttc_core.Ppa.area_pct)
  in
  let p_small, a_small = overhead "s641" in
  let p_large, a_large = overhead "s5378a" in
  Alcotest.(check bool)
    (Printf.sprintf "power shrinks (%.2f -> %.2f)" p_small p_large)
    true (p_large < p_small);
  Alcotest.(check bool)
    (Printf.sprintf "area shrinks (%.2f -> %.2f)" a_small a_large)
    true (a_large < a_small)

let test_security_grows_with_algorithm () =
  (* Fig. 3's ordering on one benchmark: dependent/parametric demand
     astronomically more clocks than independent *)
  let nl = Profiles.build_by_name "s953" in
  let clocks alg pick =
    let r = protect ~seed:Runner.master_seed alg nl in
    pick r.Flow.security
  in
  let n1 =
    clocks (Flow.Independent { count = 5 }) (fun s -> s.Sttc_core.Security.n_indep)
  in
  let n2 = clocks Flow.Dependent (fun s -> s.Sttc_core.Security.n_dep) in
  Alcotest.(check bool) "dep >> indep" true
    (Sttc_util.Lognum.log10 n2 > Sttc_util.Lognum.log10 n1 +. 3.)

let test_genuine_s27_flow_and_attack () =
  (* the real ISCAS'89 s27 through the whole pipeline: protect, sign off,
     attack, recover *)
  let nl = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  let r = protect ~seed:1 (Flow.Independent { count = 3 }) nl in
  Alcotest.(check bool) "sign-off" true (Flow.sign_off r);
  (match Sttc_attack.Sat_attack.run ~timeout_s:20. r.Flow.hybrid with
  | Sttc_attack.Sat_attack.Broken b ->
      Alcotest.(check bool) "recovered" true
        (Sttc_attack.Sat_attack.verify_break r.Flow.hybrid b.bitstream)
  | Sttc_attack.Sat_attack.Exhausted e ->
      Alcotest.fail ("s27 attack exhausted: " ^ e.reason));
  (* scan-disabled variant also terminates on so small a circuit *)
  match Sttc_attack.Sat_attack.run_sequential ~frames:4 ~timeout_s:30. r.Flow.hybrid with
  | Sttc_attack.Sat_attack.Broken _ | Sttc_attack.Sat_attack.Exhausted _ -> ()

let test_baselines_smoke () =
  let s = Runner.baselines () in
  Alcotest.(check bool) "mentions camouflaging" true
    (let needle = "camouflaging" in
     let n = String.length needle and h = String.length s in
     let rec go i = (i + n <= h) && (String.sub s i n = needle || go (i + 1)) in
     go 0)

let test_runner_quick_rows () =
  let rows =
    Runner.rows Runner.Config.(default |> with_only Runner.quick_benchmarks)
  in
  Alcotest.(check bool) "seven small benchmarks" true (List.length rows = 7);
  List.iter
    (fun row ->
      Alcotest.(check int) "three algorithms" 3
        (List.length row.Sttc_core.Report.results))
    rows;
  (* the three renderers accept the rows *)
  Alcotest.(check bool) "table1" true (String.length (Runner.table1 rows) > 0);
  Alcotest.(check bool) "table2" true (String.length (Runner.table2 rows) > 0);
  Alcotest.(check bool) "fig3" true (String.length (Runner.fig3 rows) > 0)

(* Runner.rows computes each benchmark's PPA baseline once, in its build
   task, and its three protects reuse it; the rows must equal those of
   protects that each compute their own. *)
let test_rows_share_baseline () =
  let module Obs = Sttc_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  let shared, reused =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let rows =
          Runner.rows Runner.Config.(default |> with_only [ "s641"; "s820" ])
        in
        ( rows,
          Sttc_obs.Metrics.(counter_value (snapshot ()) "flow.baseline_reused")
        ))
  in
  Alcotest.(check int) "one reuse per protect" 6 reused;
  let unshared =
    List.map
      (fun (row : Sttc_core.Report.benchmark_row) ->
        let nl = Profiles.build_by_name row.circuit in
        {
          row with
          results =
            List.map
              (fun alg ->
                ( Flow.algorithm_name alg,
                  protect ~seed:Runner.master_seed alg nl ))
              Flow.default_algorithms;
        })
      shared
  in
  Alcotest.(check string) "Table I" (Runner.table1 unshared) (Runner.table1 shared);
  Alcotest.(check string) "Fig. 3" (Runner.fig3 unshared) (Runner.fig3 shared);
  List.iter2
    (fun (s : Sttc_core.Report.benchmark_row) (u : Sttc_core.Report.benchmark_row) ->
      List.iter2
        (fun (name, rs) (_, ru) ->
          Alcotest.(check bool) (s.circuit ^ "/" ^ name ^ " overhead") true
            (rs.Flow.overhead = ru.Flow.overhead))
        s.results u.results)
    shared unshared

(* Table I and Fig. 3 depend only on the seed, so a pool fan-out must
   render them byte-identically to a serial run.  Table II carries wall
   clock, so only its deterministic shape is compared.  s9234a + s13207
   is a bag big enough to fan out (40 644 gate-units, over the 30 000
   threshold; the quick set stays serial), and recording with the pool
   probe attached counts the fan-outs in [pool.submits]. *)
(* Runner's single-netlist loops compute the netlist's baseline once:
   each of ablation_parametric's five clock factors reuses it. *)
let test_ablation_shares_baseline () =
  let module Obs = Sttc_obs.Obs in
  let reused () =
    Sttc_obs.Metrics.(counter_value (snapshot ()) "flow.baseline_reused")
  in
  Obs.reset ();
  Obs.enable ();
  let before, after =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let before = reused () in
        ignore (Runner.ablation_parametric ());
        (before, reused ()))
  in
  Alcotest.(check int) "one reuse per clock factor" 5 (after - before)

let test_parallel_rows_match_serial () =
  let module Obs = Sttc_obs.Obs in
  let run jobs =
    Obs.reset ();
    Obs.enable ();
    Obs.attach_pool ();
    Fun.protect
      ~finally:(fun () ->
        Obs.detach_pool ();
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        let rows =
          Runner.rows
            Runner.Config.(
              default
              |> with_only [ "s9234a"; "s13207" ]
              |> with_jobs jobs)
        in
        (rows, Sttc_obs.Metrics.(counter_value (snapshot ()) "pool.submits")))
  in
  let serial, serial_submits = run 1 and parallel, parallel_submits = run 2 in
  Alcotest.(check int) "-j1 runs on the calling domain" 0 serial_submits;
  Alcotest.(check int) "-j2 fans builds and protects out" 2 parallel_submits;
  Alcotest.(check string) "Table I byte-identical" (Runner.table1 serial)
    (Runner.table1 parallel);
  Alcotest.(check string) "Fig. 3 byte-identical" (Runner.fig3 serial)
    (Runner.fig3 parallel);
  List.iter2
    (fun s p ->
      Alcotest.(check string) "circuit" s.Sttc_core.Report.circuit
        p.Sttc_core.Report.circuit;
      Alcotest.(check (list string))
        "algorithm order"
        (List.map fst s.Sttc_core.Report.results)
        (List.map fst p.Sttc_core.Report.results))
    serial parallel

let test_fig1_renders () =
  let s = Runner.fig1 () in
  Alcotest.(check bool) "six gates x five metrics" true
    (String.length s > 500)

let test_sweep_renders () =
  let nl = Profiles.build_by_name "s820" in
  let s = Runner.sweep nl ~counts:[ 1; 3 ] in
  Alcotest.(check bool) "rendered" true (String.length s > 0)

let test_attack_campaign_smoke () =
  let s = Runner.attack_campaign () in
  Alcotest.(check bool) "rendered" true (String.length s > 0)

let test_cross_benchmark_depth_profile () =
  (* structural twins respect their declared combinational depth and
     produce I/O paths with at least two flip-flops (the property the
     selection algorithms rely on) *)
  List.iter
    (fun name ->
      let nl = Profiles.build_by_name name in
      let info = Profiles.find_exn name in
      let depth = Sttc_netlist.Query.depth nl in
      Alcotest.(check bool)
        (Printf.sprintf "%s depth %d <= levels+1" name depth)
        true
        (depth <= info.Profiles.levels + 1);
      let rng = Sttc_util.Rng.make 3 in
      let paths = Sttc_analysis.Paths.sample ~rng nl in
      Alcotest.(check bool) (name ^ " has deep paths") true
        (List.exists (fun p -> p.Sttc_analysis.Paths.ff_count >= 2) paths))
    [ "s641"; "s953"; "s1488" ]

let test_hybrid_foundry_cannot_simulate () =
  (* the information barrier: a foundry-view netlist with missing gates
     cannot be simulated without the bitstream *)
  let nl = Profiles.build_by_name "s820" in
  let r = protect ~seed:5 (Flow.Independent { count = 5 }) nl in
  Alcotest.(check bool) "unprogrammed rejected" true
    (try
       ignore (Sttc_sim.Simulator.create (Hybrid.foundry_view r.Flow.hybrid));
       false
     with Invalid_argument _ -> true)

let test_sta_hybrid_uses_lut_cells () =
  (* the STA of a hybrid accounts for the slower STT LUT cells *)
  let nl = Profiles.build_by_name "s820" in
  let r = protect ~seed:6 Flow.Dependent nl in
  let base = Sttc_analysis.Sta.analyze lib nl in
  let hyb = Sttc_analysis.Sta.analyze lib (Hybrid.programmed r.Flow.hybrid) in
  Alcotest.(check bool) "hybrid slower or equal" true
    (Sttc_analysis.Sta.critical_delay_ps hyb
    >= Sttc_analysis.Sta.critical_delay_ps base)

let () =
  Alcotest.run "integration"
    [
      ( "flow",
        [
          Alcotest.test_case "through files" `Slow test_flow_through_files;
          Alcotest.test_case "all small profiles sign off" `Slow
            test_all_profiles_protect_and_signoff;
          Alcotest.test_case "verilog emission" `Quick
            test_verilog_emission_for_hybrid;
          Alcotest.test_case "foundry cannot simulate" `Quick
            test_hybrid_foundry_cannot_simulate;
          Alcotest.test_case "sta uses lut cells" `Quick test_sta_hybrid_uses_lut_cells;
        ] );
      ( "paper trends",
        [
          Alcotest.test_case "overheads decrease with size" `Slow
            test_overheads_decrease_with_size;
          Alcotest.test_case "security ordering" `Slow
            test_security_grows_with_algorithm;
          Alcotest.test_case "depth profiles" `Quick
            test_cross_benchmark_depth_profile;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "quick rows" `Slow test_runner_quick_rows;
          Alcotest.test_case "rows share one baseline" `Slow
            test_rows_share_baseline;
          Alcotest.test_case "ablation shares one baseline" `Slow
            test_ablation_shares_baseline;
          Alcotest.test_case "parallel rows match serial" `Slow
            test_parallel_rows_match_serial;
          Alcotest.test_case "fig1" `Quick test_fig1_renders;
          Alcotest.test_case "sweep" `Quick test_sweep_renders;
          Alcotest.test_case "attack campaign" `Slow test_attack_campaign_smoke;
          Alcotest.test_case "genuine s27" `Slow test_genuine_s27_flow_and_attack;
          Alcotest.test_case "baselines" `Slow test_baselines_smoke;
        ] );
    ]
