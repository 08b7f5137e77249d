(* Tests for Sttc_core: hybrids, the three selection algorithms, the
   security equations, PPA evaluation, the flow driver and reporting. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Lognum = Sttc_util.Lognum
module Rng = Sttc_util.Rng
module Hybrid = Sttc_core.Hybrid
module Select = Sttc_core.Select
module Algorithms = Sttc_core.Algorithms
module Security = Sttc_core.Security
module Ppa = Sttc_core.Ppa
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Report = Sttc_core.Report

let lib = Sttc_tech.Library.cmos90

let medium_circuit seed =
  Generator.generate ~seed
    {
      Generator.design_name = "med";
      n_pi = 10;
      n_po = 8;
      n_ff = 8;
      n_gates = 120;
      levels = 8;
    }

(* ---------- Hybrid ---------- *)

let test_hybrid_views () =
  let nl = medium_circuit 1 in
  let gates = Netlist.gates nl in
  let picks = [ List.nth gates 3; List.nth gates 30; List.nth gates 60 ] in
  let h = Hybrid.make nl picks in
  Alcotest.(check int) "lut count" 3 (Hybrid.lut_count h);
  (* foundry view: all LUTs missing *)
  List.iter
    (fun id ->
      match Netlist.kind (Hybrid.foundry_view h) id with
      | Netlist.Lut { config = None; _ } -> ()
      | _ -> Alcotest.fail "foundry must not see configs")
    (Hybrid.lut_ids h);
  (* programmed view equivalent to the original *)
  (match Hybrid.verify ~method_:`Sat h with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "programmed hybrid must equal original");
  (* bitstream restores the original when installed by hand *)
  let installed = Hybrid.program_with h (Hybrid.bitstream h) in
  match Sttc_sim.Equiv.check_sat nl installed with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "bitstream reinstall failed"

let test_hybrid_bitstream_bits () =
  let nl = medium_circuit 2 in
  let two_input =
    List.filter
      (fun id ->
        match Netlist.kind nl id with
        | Netlist.Gate fn -> Gate_fn.arity fn = 2
        | _ -> false)
      (Netlist.gates nl)
  in
  let picks = [ List.hd two_input; List.nth two_input 1 ] in
  let h = Hybrid.make nl picks in
  Alcotest.(check int) "2 luts x 4 rows" 8 (Hybrid.bitstream_bits h)

let test_hybrid_wrong_bitstream_differs () =
  (* Inverting the configuration of an observable gate should change the
     function.  Logic masking can hide a single inversion, so probe a few
     gates and require that at least one inversion is detected. *)
  let nl = medium_circuit 3 in
  let seq_depth = Sttc_netlist.Query.sequential_depth_to_po nl in
  let reaching =
    List.filter (fun id -> seq_depth.(id) < max_int) (Netlist.gates nl)
  in
  let candidates =
    List.filteri (fun i _ -> i < 5) reaching
  in
  let detected =
    List.exists
      (fun pick ->
        let h = Hybrid.make nl [ pick ] in
        let _, correct = List.hd (Hybrid.bitstream h) in
        let wrong =
          Truth.of_bits ~arity:(Truth.arity correct)
            (Int64.logxor (Truth.bits correct)
               (Truth.bits (Truth.const_true ~arity:(Truth.arity correct))))
        in
        let installed = Hybrid.program_with h [ (pick, wrong) ] in
        match Sttc_sim.Equiv.check_sat nl installed with
        | Sttc_sim.Equiv.Different _ -> true
        | Sttc_sim.Equiv.Equivalent -> false
        | Sttc_sim.Equiv.Inconclusive m -> Alcotest.fail m)
      candidates
  in
  Alcotest.(check bool) "some inversion detected" true detected

let test_hybrid_rejects_non_gate () =
  let nl = medium_circuit 4 in
  let pi = List.hd (Netlist.pis nl) in
  Alcotest.(check bool) "pi rejected" true
    (try
       ignore (Hybrid.make nl [ pi ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "empty selection"
    (Invalid_argument "Hybrid.make: empty selection") (fun () ->
      ignore (Hybrid.make nl []))

let test_hybrid_extra_inputs () =
  let nl = medium_circuit 5 in
  let gates = Netlist.gates nl in
  (* find a 2-input gate and a signal outside its downstream cone *)
  let g =
    List.find
      (fun id ->
        match Netlist.kind nl id with
        | Netlist.Gate fn -> Gate_fn.arity fn = 2
        | _ -> false)
      gates
  in
  let pi = List.hd (Netlist.pis nl) in
  let h = Hybrid.make ~extra_inputs:[ (g, [ pi ]) ] nl [ g ] in
  (match Netlist.kind (Hybrid.foundry_view h) g with
  | Netlist.Lut { arity = 3; _ } -> ()
  | _ -> Alcotest.fail "expected widened LUT");
  match Hybrid.verify ~method_:`Sat h with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "extra input must not change function"

(* ---------- selection algorithms ---------- *)

let make_ctx ?(seed = 1) nl = Select.prepare ~rng:(Rng.make seed) lib nl

let test_select_prepare () =
  let nl = medium_circuit 6 in
  let ctx = make_ctx nl in
  Alcotest.(check bool) "paths found" true (ctx.Select.paths <> []);
  (* pool contains only CMOS gates *)
  List.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Gate _ -> ()
      | _ -> Alcotest.fail "pool must contain gates only")
    (Select.pool ctx)

let test_independent_count () =
  let nl = medium_circuit 7 in
  let ctx = make_ctx nl in
  let rng = Rng.make 2 in
  let picks = Algorithms.independent ~rng ~count:5 ctx in
  Alcotest.(check int) "exactly 5" 5 (List.length picks);
  (* distinct *)
  Alcotest.(check int) "distinct" 5
    (List.length (List.sort_uniq Int.compare picks));
  Alcotest.check_raises "bad count"
    (Invalid_argument "Algorithms.independent: count") (fun () ->
      ignore (Algorithms.independent ~rng ~count:0 ctx))

let test_independent_small_circuit_fallback () =
  (* a circuit with fewer path gates than requested still yields 5 *)
  let nl = medium_circuit 8 in
  let ctx = make_ctx nl in
  let rng = Rng.make 3 in
  let picks = Algorithms.independent ~rng ~count:40 ctx in
  Alcotest.(check int) "widened to gate set" 40 (List.length picks)

let test_dependent_connected () =
  let nl = medium_circuit 9 in
  let ctx = make_ctx nl in
  let rng = Rng.make 4 in
  let picks = Algorithms.dependent ~rng ctx in
  Alcotest.(check bool) "non-empty" true (picks <> []);
  (* the replaced gates come from one I/O path: consecutive gates of the
     path are pairwise reachable, so at least one dependent pair exists
     whenever two or more gates were picked *)
  if List.length picks >= 2 then begin
    let h = Hybrid.make nl picks in
    let pairs =
      Sttc_netlist.Query.connected_lut_pair_count (Hybrid.foundry_view h)
        (Hybrid.lut_ids h)
    in
    Alcotest.(check bool) "dependency exists" true (pairs > 0)
  end

let test_parametric_respects_timing () =
  let nl = medium_circuit 10 in
  let ctx = make_ctx nl in
  let rng = Rng.make 5 in
  let options =
    { Algorithms.default_parametric with Algorithms.clock_factor = 1.10 }
  in
  let picks, _ = Algorithms.parametric_with_meta ~rng ~options ctx in
  Alcotest.(check bool) "non-empty" true (picks <> []);
  let h = Hybrid.make nl picks in
  let sta_base = Sttc_analysis.Sta.analyze lib nl in
  let sta_h = Sttc_analysis.Sta.analyze lib (Hybrid.programmed h) in
  let degradation =
    Sttc_analysis.Sta.critical_delay_ps sta_h
    /. Sttc_analysis.Sta.critical_delay_ps sta_base
  in
  Alcotest.(check bool)
    (Printf.sprintf "within constraint (got %.3f)" degradation)
    true
    (degradation <= 1.10 +. 1e-9)

let test_trial_early_out () =
  (* a gate outside every endpoint cone cannot move any arrival: the
     trial must answer from its current state without propagating
     (counter select.timing_early_out), and still agree with a
     from-scratch analysis of the replaced netlist *)
  let module B = Netlist.Builder in
  let b = B.create ~design_name:"dangling" () in
  let a = B.add_pi b "a" in
  let c = B.add_pi b "c" in
  let g1 = B.add_gate b "g1" (Gate_fn.And 2) [| a; c |] in
  let g2 = B.add_gate b "g2" (Gate_fn.Or 2) [| a; c |] in
  B.add_output b "o" g1;
  let nl = B.finalize b in
  let module Sta = Sttc_analysis.Sta in
  let module Metrics = Sttc_obs.Metrics in
  Sttc_obs.Obs.enable ();
  Metrics.reset ();
  let ctx = Select.prepare ~rng:(Rng.make 1) lib nl in
  let tr = Lazy.force ctx.Select.trial in
  Sta.trial_set tr [ g2 ];
  let delay = Sta.trial_current_delay_ps tr in
  let counter name = Metrics.counter_value (Metrics.snapshot ()) name in
  let early = counter "select.timing_early_out" in
  let cones = counter "sta.retime.cone" in
  Sttc_obs.Obs.disable ();
  Alcotest.(check int) "early-out taken" 1 early;
  Alcotest.(check int) "nothing propagated" 0 cones;
  Alcotest.(check (float 0.))
    "same delay as full STA"
    (Sta.critical_delay_ps
       (Sta.analyze lib
          (Sttc_netlist.Transform.replace_many ~keep_function:true nl [ g2 ])))
    delay;
  (* a second query with the same set is also a pure cache hit *)
  Sta.trial_set tr [ g2 ];
  Alcotest.(check (float 0.)) "repeat query stable" delay
    (Sta.trial_current_delay_ps tr)

let test_parametric_eligibility () =
  (* parametric only selects fan-in >= 2 gates on the timing paths; the
     USL closure may add others, but every replaced node is a former CMOS
     gate *)
  let nl = medium_circuit 11 in
  let ctx = make_ctx nl in
  let rng = Rng.make 6 in
  let picks, _ = Algorithms.parametric_with_meta ~rng ctx in
  List.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Gate _ -> ()
      | _ -> Alcotest.fail "parametric picked a non-gate")
    picks

(* ---------- Security (Eqs. 1-3) ---------- *)

let test_security_formulas_tiny () =
  (* one 2-input missing gate driving a PO directly: D = 1
     Eq.1: alpha * D = 2.45; Eq.2: alpha * P * D = 6.125;
     Eq.3: 2^I * P^M * D with I = 2, M = 1 -> 4 * 2.5 = 10 *)
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_pi b "x" in
  let y = Netlist.Builder.add_pi b "y" in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| x; y |] in
  Netlist.Builder.add_output b "o" g;
  let nl = Netlist.Builder.finalize b in
  let h = Hybrid.make nl [ g ] in
  let r = Security.evaluate (Hybrid.foundry_view h) ~luts:(Hybrid.lut_ids h) in
  Alcotest.(check int) "M" 1 r.Security.missing_gates;
  Alcotest.(check int) "I" 2 r.Security.accessible_inputs;
  Alcotest.(check int) "bits" 4 r.Security.total_config_bits;
  Alcotest.(check (float 1e-6)) "Eq.1" 2.45 (10. ** Lognum.log10 r.Security.n_indep);
  Alcotest.(check (float 1e-6)) "Eq.2" 6.125 (10. ** Lognum.log10 r.Security.n_dep);
  Alcotest.(check (float 1e-6)) "Eq.3" 10. (10. ** Lognum.log10 r.Security.n_bf)

let test_security_monotone_in_m () =
  let nl = medium_circuit 12 in
  let gates = Array.of_list (Netlist.gates nl) in
  let eval k =
    let picks = Array.to_list (Array.sub gates 0 k) in
    let h = Hybrid.make nl picks in
    Security.evaluate (Hybrid.foundry_view h) ~luts:(Hybrid.lut_ids h)
  in
  let r5 = eval 5 and r20 = eval 20 in
  Alcotest.(check bool) "Eq.2 grows with M" true
    (Lognum.log10 r20.Security.n_dep > Lognum.log10 r5.Security.n_dep);
  Alcotest.(check bool) "Eq.3 grows with M" true
    (Lognum.log10 r20.Security.n_bf > Lognum.log10 r5.Security.n_bf)

let test_security_dependent_gt_independent () =
  (* for any nontrivial selection, N_dep >>> N_indep *)
  let nl = medium_circuit 13 in
  let ctx = make_ctx nl in
  let picks = Algorithms.dependent ~rng:(Rng.make 1) ctx in
  let h = Hybrid.make nl picks in
  let r = Security.evaluate (Hybrid.foundry_view h) ~luts:(Hybrid.lut_ids h) in
  Alcotest.(check bool) "N_dep > N_indep" true
    (Lognum.log10 r.Security.n_dep > Lognum.log10 r.Security.n_indep)

let test_security_years () =
  let y = Security.years_to_break (Lognum.pow (Lognum.of_int 10) 220) in
  (* 1e220 clocks at 1e9/s ~ 3e203 years: far beyond the paper's
     1000-year bar *)
  Alcotest.(check bool) "more than 1000 years" true
    (Lognum.log10 y > 3.)

let test_security_validation () =
  let nl = medium_circuit 14 in
  Alcotest.check_raises "no luts"
    (Invalid_argument "Security.evaluate: no missing gates") (fun () ->
      ignore (Security.evaluate nl ~luts:[]));
  Alcotest.check_raises "not a lut"
    (Invalid_argument "Security.evaluate: node is not a LUT") (fun () ->
      ignore (Security.evaluate nl ~luts:[ List.hd (Netlist.gates nl) ]))

(* [dependent_pairs] and [accessible_inputs] of every paper row: the
   12 ISCAS'89 twins x the three default algorithms at the paper's master
   seed, recorded from the pair-listing implementation of the dependency
   count.  Nothing else pins the dependency count, and Table I does not
   print it. *)
let pinned_security_counts =
  [
    ("s641", "independent", 8, 43);
    ("s641", "dependent", 150, 43);
    ("s641", "parametric", 16, 43);
    ("s820", "independent", 5, 22);
    ("s820", "dependent", 123, 22);
    ("s820", "parametric", 29, 22);
    ("s832", "independent", 6, 23);
    ("s832", "dependent", 65, 23);
    ("s832", "parametric", 18, 23);
    ("s953", "independent", 3, 42);
    ("s953", "dependent", 50, 42);
    ("s953", "parametric", 6, 43);
    ("s1196", "independent", 5, 32);
    ("s1196", "dependent", 239, 32);
    ("s1196", "parametric", 36, 32);
    ("s1238", "independent", 7, 32);
    ("s1238", "dependent", 263, 32);
    ("s1238", "parametric", 23, 32);
    ("s1488", "independent", 4, 14);
    ("s1488", "dependent", 88, 14);
    ("s1488", "parametric", 33, 14);
    ("s5378a", "independent", 2, 209);
    ("s5378a", "dependent", 1307, 209);
    ("s5378a", "parametric", 308, 209);
    ("s9234a", "independent", 4, 246);
    ("s9234a", "dependent", 4083, 246);
    ("s9234a", "parametric", 352, 246);
    ("s13207", "independent", 2, 560);
    ("s13207", "dependent", 5748, 660);
    ("s13207", "parametric", 1376, 661);
    ("s15850a", "independent", 6, 589);
    ("s15850a", "dependent", 1731, 593);
    ("s15850a", "parametric", 2574, 594);
    ("s38584", "independent", 1, 1353);
    ("s38584", "dependent", 14751, 1387);
    ("s38584", "parametric", 3407, 1387);
  ]

let test_security_pinned_counts () =
  let module Runner = Sttc_experiments.Runner in
  let got =
    List.concat_map
      (fun name ->
        let nl = Runner.build_circuit name in
        List.map
          (fun alg ->
            let s =
              (protect ~seed:Runner.master_seed alg nl).Flow.security
            in
            ( name,
              Flow.algorithm_name alg,
              s.Security.dependent_pairs,
              s.Security.accessible_inputs ))
          Flow.default_algorithms)
      Sttc_netlist.Iscas_profiles.names
  in
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "twins x algorithms"
    (List.map (fun (n, a, d, i) -> ((n, a), (d, i))) pinned_security_counts)
    (List.map (fun (n, a, d, i) -> ((n, a), (d, i))) got)

let test_security_constants () =
  (* paper vs computed constants differ but stay in the same ballpark *)
  let nl = medium_circuit 15 in
  let gates = Array.of_list (Netlist.gates nl) in
  let picks = Array.to_list (Array.sub gates 0 8) in
  let h = Hybrid.make nl picks in
  let foundry = Hybrid.foundry_view h in
  let luts = Hybrid.lut_ids h in
  let rp = Security.evaluate ~constants:Security.paper_constants foundry ~luts in
  let rc =
    Security.evaluate ~constants:Security.computed_constants foundry ~luts
  in
  let gap =
    Float.abs (Lognum.log10 rp.Security.n_dep -. Lognum.log10 rc.Security.n_dep)
  in
  Alcotest.(check bool) "within 4 orders of magnitude" true (gap < 4.)

(* ---------- Ppa ---------- *)

let test_ppa_overheads_positive () =
  let nl = medium_circuit 16 in
  let gates = Netlist.gates nl in
  let picks = [ List.nth gates 10; List.nth gates 50 ] in
  let h = Hybrid.make nl picks in
  let o = Ppa.evaluate lib ~base:nl ~hybrid:(Hybrid.programmed h) in
  Alcotest.(check int) "n_stts" 2 o.Ppa.n_stts;
  Alcotest.(check bool) "power overhead > 0" true (o.Ppa.power_pct > 0.);
  Alcotest.(check bool) "area overhead > 0" true (o.Ppa.area_pct > 0.);
  Alcotest.(check bool) "perf overhead >= 0" true (o.Ppa.performance_pct >= 0.);
  Alcotest.(check (float 1e-9)) "identity" 0.
    (Ppa.evaluate lib ~base:nl ~hybrid:nl).Ppa.power_pct

(* ---------- Flow ---------- *)

let test_flow_protect_all_algorithms () =
  let nl = medium_circuit 17 in
  List.iter
    (fun alg ->
      let r = protect ~seed:3 alg nl in
      Alcotest.(check bool)
        (Flow.algorithm_name alg ^ " produced luts")
        true
        (Hybrid.lut_count r.Flow.hybrid > 0);
      Alcotest.(check bool)
        (Flow.algorithm_name alg ^ " sign-off")
        true
        (Hybrid.verify ~method_:(`Random 2048) r.Flow.hybrid
         = Sttc_sim.Equiv.Equivalent))
    Flow.default_algorithms

let test_flow_deterministic () =
  let nl = medium_circuit 18 in
  let r1 = protect ~seed:9 Flow.Dependent nl in
  let r2 = protect ~seed:9 Flow.Dependent nl in
  Alcotest.(check (list int)) "same selection"
    (Hybrid.lut_ids r1.Flow.hybrid)
    (Hybrid.lut_ids r2.Flow.hybrid)

let test_flow_no_forced_minor () =
  (* with a minor heap no protect call can fill (8M words), any minor
     collection during Flow.run is a forced one: an array of over 256
     words built from a young initial value.  The twin is built fresh,
     so its nodes are young too. *)
  let nl = Sttc_experiments.Runner.build_circuit "s1488" in
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let moved =
    Fun.protect
      ~finally:(fun () -> Gc.set saved)
      (fun () ->
        List.map
          (fun alg ->
            let before = (Gc.quick_stat ()).Gc.minor_collections in
            ignore (protect ~seed:1 alg nl);
            ( Flow.algorithm_name alg,
              (Gc.quick_stat ()).Gc.minor_collections - before ))
          Flow.default_algorithms)
  in
  Alcotest.(check (list (pair string int)))
    "minor collections per protect"
    (List.map (fun alg -> (Flow.algorithm_name alg, 0)) Flow.default_algorithms)
    moved

(* Same seed must reproduce the run bit for bit: the secret bitstream
   text and every lint diagnostic, for all three algorithms.  This is
   what makes a checkpointed/resumed experiment trustworthy. *)
let test_flow_seed_identical_artifacts () =
  let nl = medium_circuit 23 in
  List.iter
    (fun alg ->
      let artifacts () =
        let r = protect ~seed:77 alg nl in
        let bitstream =
          Sttc_core.Provision.to_string (Sttc_core.Provision.of_hybrid r.Flow.hybrid)
        in
        let lint_text =
          String.concat "\n"
            (List.map Sttc_lint.Diagnostic.to_text
               (r.Flow.lint @ Flow.lint_security r))
        in
        (bitstream, lint_text)
      in
      let b1, l1 = artifacts () in
      let b2, l2 = artifacts () in
      let name = Flow.algorithm_name alg in
      Alcotest.(check string) (name ^ " bitstream identical") b1 b2;
      Alcotest.(check string) (name ^ " lint identical") l1 l2)
    Flow.default_algorithms

let test_flow_independent_uses_count () =
  let nl = medium_circuit 19 in
  let r = protect ~seed:4 (Flow.Independent { count = 7 }) nl in
  Alcotest.(check int) "seven luts" 7 (Hybrid.lut_count r.Flow.hybrid)

let test_flow_rejects_gateless () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  Netlist.Builder.add_output b "y" a;
  let nl = Netlist.Builder.finalize b in
  Alcotest.check_raises "no gates"
    (Invalid_argument "Flow.run: netlist has no CMOS gates") (fun () ->
      ignore (protect (Flow.Independent { count = 1 }) nl))

(* ---------- Expand / hardening ---------- *)

let test_expand_extra_inputs () =
  let nl = medium_circuit 21 in
  let gates = Netlist.gates nl in
  let picks = [ List.nth gates 5; List.nth gates 40 ] in
  let extras =
    Sttc_core.Expand.pick_extra_inputs ~rng:(Rng.make 1) ~per_lut:2 nl picks
  in
  List.iter
    (fun (gate, added) ->
      Alcotest.(check bool) "at most 2" true (List.length added <= 2);
      let existing = Array.to_list (Netlist.fanins nl gate) in
      List.iter
        (fun e ->
          Alcotest.(check bool) "not already a fanin" false (List.mem e existing);
          Alcotest.(check bool) "no combinational cycle" false
            (Netlist.is_combinational (Netlist.kind nl e)
            && Sttc_netlist.Query.reaches_combinationally nl gate e))
        added)
    extras;
  (* hybrids built with extras still verify *)
  let h = Hybrid.make ~extra_inputs:extras nl picks in
  match Hybrid.verify ~method_:`Sat h with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "extras broke equivalence"

let test_expand_absorptions () =
  let nl = medium_circuit 22 in
  let gates = Netlist.gates nl in
  let picks = List.filteri (fun i _ -> i mod 7 = 0) gates in
  let absorb = Sttc_core.Expand.pick_absorptions nl picks in
  List.iter
    (fun (gate, driver) ->
      Alcotest.(check bool) "gate selected" true (List.mem gate picks);
      Alcotest.(check bool) "driver not selected" false (List.mem driver picks);
      match Netlist.fanouts nl driver with
      | [ single ] -> Alcotest.(check int) "single fanout" gate single
      | _ -> Alcotest.fail "driver must have single fanout")
    absorb

let test_flow_hardening () =
  let nl = medium_circuit 23 in
  let hardening = Flow.hardened in
  let plain = protect ~seed:4 (Flow.Independent { count = 5 }) nl in
  let hard = protect ~seed:4 ~hardening (Flow.Independent { count = 5 }) nl in
  (* hardening must preserve functionality *)
  Alcotest.(check bool) "hardened sign-off" true
    (Hybrid.verify ~method_:(`Random 2048) hard.Flow.hybrid
     = Sttc_sim.Equiv.Equivalent);
  (* ... and strictly enlarge the configuration space *)
  Alcotest.(check bool) "more config bits" true
    (hard.Flow.security.Security.total_config_bits
    > plain.Flow.security.Security.total_config_bits);
  Alcotest.(check bool) "brute-force space grows" true
    (Lognum.log10 hard.Flow.security.Security.n_bf
    > Lognum.log10 plain.Flow.security.Security.n_bf)

(* ---------- Camouflage baseline ---------- *)

let camouflage_tables () =
  match Sttc_core.Camouflage.family with
  | Some f -> f 2
  | None -> Alcotest.fail "camouflage cells form a restricted family"

let test_camouflage_basics () =
  let nl = medium_circuit 27 in
  let candidate id =
    match Netlist.kind nl id with
    | Netlist.Gate fn -> List.mem (Gate_fn.truth fn) (camouflage_tables ())
    | _ -> false
  in
  (* asked for more cells than there are, it camouflages every candidate
     gate and nothing else *)
  let all = Sttc_core.Camouflage.random ~rng:(Rng.make 1) ~count:max_int nl in
  Alcotest.(check (list int)) "every candidate gate"
    (List.filter candidate (Netlist.gates nl))
    (List.sort compare (Hybrid.lut_ids all));
  let h = Sttc_core.Camouflage.random ~rng:(Rng.make 1) ~count:3 nl in
  Alcotest.(check int) "3 cells" 3 (Hybrid.lut_count h);
  (* search space = 3^3 = 27, far below the 2^12 of three full 2-LUTs *)
  let space family =
    10.
    ** Lognum.log10
         (Sttc_backend.Backend.search_space family (Hybrid.foundry_view h)
            (Hybrid.lut_ids h))
  in
  Alcotest.(check (float 1e-6)) "3^M" 27. (space Sttc_core.Camouflage.family);
  Alcotest.(check (float 1e-6)) "2^12 as full LUTs" 4096. (space None);
  (* the camouflaged design still computes the original function *)
  match Hybrid.verify ~method_:`Sat h with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "camouflage must preserve function"

let test_camouflage_rejects_ineligible () =
  (* AND2 and OR2 are not camouflageable cells *)
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_pi b "x" and y = Netlist.Builder.add_pi b "y" in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| x; y |] in
  let h = Netlist.Builder.add_gate b "h" (Gate_fn.Or 2) [| g; y |] in
  Netlist.Builder.add_output b "o" h;
  let nl = Netlist.Builder.finalize b in
  Alcotest.check_raises "no candidate gate"
    (Invalid_argument "Camouflage.random: no eligible cells") (fun () ->
      ignore (Sttc_core.Camouflage.random ~rng:(Rng.make 1) ~count:2 nl))

let test_camouflage_sat_candidates () =
  let nl = medium_circuit 29 in
  let h = Sttc_core.Camouflage.random ~rng:(Rng.make 2) ~count:2 nl in
  let cands =
    Sttc_backend.Backend.sat_candidates Sttc_core.Camouflage.family
      (Hybrid.foundry_view h) (Hybrid.lut_ids h)
  in
  Alcotest.(check int) "one entry per cell" 2 (List.length cands);
  List.iter
    (fun (id, tables) ->
      Alcotest.(check int) "three candidates" 3 (List.length tables);
      Alcotest.(check bool) "the true function is a candidate" true
        (List.mem (List.assoc id (Hybrid.bitstream h)) tables))
    cands

(* ---------- Provision ---------- *)

let test_provision_roundtrip () =
  let nl = medium_circuit 24 in
  let r = protect ~seed:6 (Flow.Independent { count = 4 }) nl in
  let entries = Sttc_core.Provision.of_hybrid r.Flow.hybrid in
  Alcotest.(check int) "one entry per lut" 4 (List.length entries);
  let text = Sttc_core.Provision.to_string entries in
  let entries2 = Sttc_core.Provision.parse text in
  Alcotest.(check int) "parse count" 4 (List.length entries2);
  let programmed =
    Sttc_core.Provision.apply (Hybrid.foundry_view r.Flow.hybrid) entries2
  in
  match Sttc_sim.Equiv.check_sat nl programmed with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "provisioned netlist differs"

let test_provision_errors () =
  let nl = medium_circuit 25 in
  let r = protect ~seed:7 (Flow.Independent { count = 2 }) nl in
  let foundry = Hybrid.foundry_view r.Flow.hybrid in
  (* malformed text *)
  Alcotest.(check bool) "garbage rejected" true
    (try
       ignore (Sttc_core.Provision.parse "not a bitstream line at all x y z");
       false
     with Failure _ -> true);
  (* unknown LUT name *)
  Alcotest.(check bool) "unknown name rejected" true
    (try
       ignore
         (Sttc_core.Provision.apply foundry
            [ { Sttc_core.Provision.lut_name = "ghost";
                config = Truth.of_string "0110" } ]);
       false
     with Invalid_argument _ -> true);
  (* incomplete bitstream leaves LUTs unconfigured *)
  let entries = Sttc_core.Provision.of_hybrid r.Flow.hybrid in
  Alcotest.(check bool) "partial rejected" true
    (try
       ignore (Sttc_core.Provision.apply foundry [ List.hd entries ]);
       false
     with Invalid_argument _ -> true)

let test_provision_cost () =
  let nl = medium_circuit 26 in
  let r = protect ~seed:8 (Flow.Independent { count = 3 }) nl in
  let cost = Sttc_core.Provision.programming_cost r.Flow.hybrid in
  Alcotest.(check int) "cells = bitstream bits"
    (Hybrid.bitstream_bits r.Flow.hybrid)
    cost.Sttc_core.Provision.mtj_cells;
  Alcotest.(check bool) "energy positive" true
    (cost.Sttc_core.Provision.write_energy_nj > 0.);
  Alcotest.(check bool) "time positive" true
    (cost.Sttc_core.Provision.write_time_us > 0.)

(* ---------- Report ---------- *)

let test_report_rendering () =
  let nl = medium_circuit 20 in
  let results =
    List.map
      (fun alg -> (Flow.algorithm_name alg, protect ~seed:5 alg nl))
      Flow.default_algorithms
  in
  let rows = [ { Report.circuit = "med"; size = 120; results; failures = [] } ] in
  let t1 = Report.table1 rows in
  Alcotest.(check bool) "table1 has circuit" true
    (String.length t1 > 0
    &&
    let re = "med" in
    let rec contains i =
      i + String.length re <= String.length t1
      && (String.sub t1 i (String.length re) = re || contains (i + 1))
    in
    contains 0);
  let t2 = Report.table2 rows in
  Alcotest.(check bool) "table2 nonempty" true (String.length t2 > 0);
  let f3 = Report.fig3 rows in
  Alcotest.(check bool) "fig3 nonempty" true (String.length f3 > 0);
  let f1 = Report.fig1 () in
  Alcotest.(check bool) "fig1 mentions NAND2" true
    (let re = "NAND2" in
     let rec contains i =
       i + String.length re <= String.length f1
       && (String.sub f1 i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let test_report_partial_rows () =
  let nl = medium_circuit 20 in
  let results =
    [ ("independent", protect ~seed:5 (Flow.Independent { count = 5 }) nl) ]
  in
  let row =
    {
      Report.circuit = "med";
      size = 120;
      results;
      failures =
        [ ("dependent", "protect: timeout after 1.0s"); ("parametric", "boom") ];
    }
  in
  let t1 = Report.table1 [ row ] in
  Alcotest.(check bool) "footnote present" true (contains t1 "partial results:");
  Alcotest.(check bool) "names the timeout" true
    (contains t1 "! med/dependent: protect: timeout after 1.0s");
  Alcotest.(check bool) "names the crash" true (contains t1 "! med/parametric: boom");
  let t2 = Report.table2 [ row ] in
  Alcotest.(check bool) "table2 footnote" true (contains t2 "partial results:");
  (* complete rows must not grow a footnote *)
  let full = { Report.circuit = "med"; size = 120; results; failures = [] } in
  Alcotest.(check bool) "no footnote when complete" false
    (contains (Report.table1 [ full ]) "partial results:")

let () =
  Alcotest.run "sttc_core"
    [
      ( "hybrid",
        [
          Alcotest.test_case "views" `Quick test_hybrid_views;
          Alcotest.test_case "bitstream bits" `Quick test_hybrid_bitstream_bits;
          Alcotest.test_case "wrong bitstream differs" `Quick
            test_hybrid_wrong_bitstream_differs;
          Alcotest.test_case "rejects non-gate" `Quick test_hybrid_rejects_non_gate;
          Alcotest.test_case "extra inputs" `Quick test_hybrid_extra_inputs;
        ] );
      ( "selection",
        [
          Alcotest.test_case "prepare" `Quick test_select_prepare;
          Alcotest.test_case "independent count" `Quick test_independent_count;
          Alcotest.test_case "independent fallback" `Quick
            test_independent_small_circuit_fallback;
          Alcotest.test_case "dependent connected" `Quick test_dependent_connected;
          Alcotest.test_case "parametric timing" `Quick
            test_parametric_respects_timing;
          Alcotest.test_case "parametric eligibility" `Quick
            test_parametric_eligibility;
          Alcotest.test_case "trial early-out" `Quick test_trial_early_out;
        ] );
      ( "security",
        [
          Alcotest.test_case "formulas on tiny circuit" `Quick
            test_security_formulas_tiny;
          Alcotest.test_case "monotone in M" `Quick test_security_monotone_in_m;
          Alcotest.test_case "dependent > independent" `Quick
            test_security_dependent_gt_independent;
          Alcotest.test_case "years" `Quick test_security_years;
          Alcotest.test_case "validation" `Quick test_security_validation;
          Alcotest.test_case "constants comparison" `Quick test_security_constants;
          Alcotest.test_case "pinned counts" `Quick test_security_pinned_counts;
        ] );
      ("ppa", [ Alcotest.test_case "overheads" `Quick test_ppa_overheads_positive ]);
      ( "expand",
        [
          Alcotest.test_case "extra inputs" `Quick test_expand_extra_inputs;
          Alcotest.test_case "absorptions" `Quick test_expand_absorptions;
          Alcotest.test_case "flow hardening" `Quick test_flow_hardening;
        ] );
      ( "flow",
        [
          Alcotest.test_case "all algorithms" `Quick test_flow_protect_all_algorithms;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "seed-identical artifacts" `Quick
            test_flow_seed_identical_artifacts;
          Alcotest.test_case "no forced minor collection" `Quick
            test_flow_no_forced_minor;
          Alcotest.test_case "independent count" `Quick
            test_flow_independent_uses_count;
          Alcotest.test_case "rejects gateless" `Quick test_flow_rejects_gateless;
        ] );
      ( "camouflage",
        [
          Alcotest.test_case "basics" `Quick test_camouflage_basics;
          Alcotest.test_case "rejects ineligible" `Quick
            test_camouflage_rejects_ineligible;
          Alcotest.test_case "sat candidates" `Quick test_camouflage_sat_candidates;
        ] );
      ( "provision",
        [
          Alcotest.test_case "roundtrip" `Quick test_provision_roundtrip;
          Alcotest.test_case "errors" `Quick test_provision_errors;
          Alcotest.test_case "cost" `Quick test_provision_cost;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "partial rows" `Quick test_report_partial_rows;
        ] );
    ]
