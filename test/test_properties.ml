(* Cross-module property-based tests: invariants that must hold on random
   circuits, random selections and random configurations — the contracts
   the whole flow rests on. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Transform = Sttc_netlist.Transform
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Rng = Sttc_util.Rng
module Lognum = Sttc_util.Lognum
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Hybrid = Sttc_core.Hybrid

let gen_seed = QCheck2.Gen.int_range 0 100_000

let small_spec =
  {
    Generator.design_name = "prop";
    n_pi = 6;
    n_po = 5;
    n_ff = 4;
    n_gates = 45;
    levels = 5;
  }

let gen_netlist seed = Generator.generate ~seed small_spec

let equivalent a b =
  match Sttc_sim.Equiv.check_sat a b with
  | Sttc_sim.Equiv.Equivalent -> true
  | _ -> false

let to_case = QCheck_alcotest.to_alcotest

(* ---------- flow-level invariants ---------- *)

let prop_protect_program_identity =
  QCheck2.Test.make ~name:"protect then program restores the function"
    ~count:12
    QCheck2.Gen.(pair gen_seed (int_range 0 2))
    (fun (seed, alg_idx) ->
      let nl = gen_netlist seed in
      let alg = List.nth Flow.default_algorithms alg_idx in
      let r = protect ~seed alg nl in
      equivalent nl (Hybrid.programmed r.Flow.hybrid))

let prop_foundry_view_has_no_configs =
  QCheck2.Test.make ~name:"foundry view never carries configurations"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let r = protect ~seed (Flow.Independent { count = 4 }) nl in
      List.for_all
        (fun id ->
          match Netlist.kind (Hybrid.foundry_view r.Flow.hybrid) id with
          | Netlist.Lut { config = None; _ } -> true
          | _ -> false)
        (Hybrid.lut_ids r.Flow.hybrid))

let prop_hardening_preserves_function =
  QCheck2.Test.make ~name:"hardened hybrids stay equivalent" ~count:10
    QCheck2.Gen.(pair gen_seed (int_range 1 2))
    (fun (seed, extra) ->
      let nl = gen_netlist seed in
      let hardening =
        { Flow.extra_inputs_per_lut = extra; absorb_drivers = true }
      in
      let r = protect ~seed ~hardening (Flow.Independent { count = 3 }) nl in
      equivalent nl (Hybrid.programmed r.Flow.hybrid))

(* Seeds at which complex-function absorption once absorbed a driver
   that also drives a primary output, turning that output into a dead
   placeholder's. *)
let test_absorb_keeps_outputs () =
  List.iter
    (fun seed ->
      let nl = gen_netlist seed in
      let hardening = { Flow.extra_inputs_per_lut = 0; absorb_drivers = true } in
      let r = protect ~seed ~hardening (Flow.Independent { count = 3 }) nl in
      if not (equivalent nl (Hybrid.programmed r.Flow.hybrid)) then
        Alcotest.failf "seed %d: hardened hybrid differs" seed)
    [ 32510; 56290; 72015 ]

let prop_security_monotone =
  QCheck2.Test.make ~name:"N_dep and N_bf never shrink when LUTs are added"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let gates = Array.of_list (Netlist.gates nl) in
      QCheck2.assume (Array.length gates >= 8);
      let eval k =
        let h = Hybrid.make nl (Array.to_list (Array.sub gates 0 k)) in
        Sttc_core.Security.evaluate (Hybrid.foundry_view h)
          ~luts:(Hybrid.lut_ids h)
      in
      let a = eval 4 and b = eval 8 in
      Lognum.log10 b.Sttc_core.Security.n_dep >= Lognum.log10 a.Sttc_core.Security.n_dep
      && Lognum.log10 b.Sttc_core.Security.n_bf >= Lognum.log10 a.Sttc_core.Security.n_bf)

(* ---------- netlist transforms ---------- *)

let prop_optimize_equivalence =
  QCheck2.Test.make ~name:"Opt.optimize preserves the function" ~count:15
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      equivalent nl (Sttc_netlist.Opt.optimize nl))

let prop_sweep_equivalence_and_map =
  QCheck2.Test.make ~name:"Transform.sweep preserves function and maps ids"
    ~count:15 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let swept, map = Transform.sweep nl in
      equivalent nl swept
      && Array.for_all (fun m -> m >= -1 && m < Netlist.node_count swept) map)

let prop_scan_functional_mode =
  QCheck2.Test.make ~name:"scan insertion is invisible in functional mode"
    ~count:10 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      QCheck2.assume (Netlist.dffs nl <> []);
      let chain = Sttc_netlist.Scan.insert nl in
      let snl = chain.Sttc_netlist.Scan.netlist in
      let sim0 = Sttc_sim.Simulator.create nl in
      let sim1 = Sttc_sim.Simulator.create snl in
      Sttc_sim.Simulator.reset sim0;
      Sttc_sim.Simulator.reset sim1;
      let rng = Rng.make seed in
      let pis0 = Array.of_list (Netlist.pis nl) in
      let ok = ref true in
      for _ = 1 to 12 do
        let v0 = Array.map (fun _ -> Rng.int64 rng) pis0 in
        let v1 = Array.append v0 [| 0L; 0L |] in
        let o0 = Sttc_sim.Simulator.step sim0 v0 in
        let o1 = Sttc_sim.Simulator.step sim1 v1 in
        Array.iteri (fun i v -> if v <> o1.(i) then ok := false) o0
      done;
      !ok)

let prop_scan_shift_any_state =
  QCheck2.Test.make ~name:"scan shifting loads any state" ~count:10
    QCheck2.Gen.(pair gen_seed (int_range 0 15))
    (fun (seed, state_bits) ->
      let nl = gen_netlist seed in
      QCheck2.assume (Netlist.dffs nl <> []);
      let chain = Sttc_netlist.Scan.insert nl in
      let snl = chain.Sttc_netlist.Scan.netlist in
      let m = Sttc_netlist.Scan.shift_cycles chain in
      let target = Array.init m (fun i -> (state_bits lsr (i mod 4)) land 1 = 1) in
      let sim = Sttc_sim.Simulator.create snl in
      Sttc_sim.Simulator.reset sim;
      List.iter
        (fun v ->
          ignore
            (Sttc_sim.Simulator.step sim
               (Array.map (fun b -> if b then -1L else 0L) v)))
        (Sttc_netlist.Scan.shift_sequence chain target);
      let st = Sttc_sim.Simulator.state sim in
      let dffs = Netlist.dffs snl in
      List.for_all
        (fun (i, ff) ->
          let pos = ref 0 in
          List.iteri (fun j f -> if f = ff then pos := j) dffs;
          Int64.logand st.(!pos) 1L = (if target.(i) then 1L else 0L))
        (List.mapi (fun i ff -> (i, ff)) chain.Sttc_netlist.Scan.order))

(* ---------- IO round-trips ---------- *)

let prop_bench_roundtrip_with_luts =
  QCheck2.Test.make ~name:"hybrid .bench round-trips semantically" ~count:12
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let gates = Array.of_list (Netlist.gates nl) in
      let picks =
        Array.to_list (Rng.sample (Rng.make seed) 3 gates)
      in
      let h = Hybrid.make nl picks in
      let programmed = Hybrid.programmed h in
      let reparsed =
        Sttc_netlist.Bench_io.parse_string
          (Sttc_netlist.Bench_io.to_string programmed)
      in
      equivalent programmed reparsed)

let prop_provision_roundtrip =
  QCheck2.Test.make ~name:"bitstream serialize/parse/apply restores design"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let r = protect ~seed (Flow.Independent { count = 3 }) nl in
      let text =
        Sttc_core.Provision.to_string (Sttc_core.Provision.of_hybrid r.Flow.hybrid)
      in
      let programmed =
        Sttc_core.Provision.apply
          (Hybrid.foundry_view r.Flow.hybrid)
          (Sttc_core.Provision.parse text)
      in
      equivalent nl programmed)

(* ---------- analysis invariants ---------- *)

let prop_segments_partition_path =
  QCheck2.Test.make ~name:"segments partition a path's gates" ~count:15
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let rng = Rng.make seed in
      let paths = Sttc_analysis.Paths.sample ~rng ~fraction:0.4 nl in
      List.for_all
        (fun p ->
          let from_segments =
            List.concat_map
              (fun s -> s.Sttc_analysis.Paths.gates)
              (Sttc_analysis.Paths.segments nl p)
          in
          from_segments = Sttc_analysis.Paths.gates_on_path nl p)
        paths)

let prop_sta_arrival_monotone =
  QCheck2.Test.make ~name:"STA arrivals never decrease along a path"
    ~count:15 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let sta = Sttc_analysis.Sta.analyze Sttc_tech.Library.cmos90 nl in
      let rec increasing = function
        | a :: (b :: _ as rest) ->
            Sttc_analysis.Sta.arrival_ps sta a
            <= Sttc_analysis.Sta.arrival_ps sta b +. 1e-9
            && increasing rest
        | _ -> true
      in
      increasing (Sttc_analysis.Sta.critical_path sta))

let prop_power_hybrid_exceeds_base =
  QCheck2.Test.make ~name:"replacing gates with STT LUTs never cuts power"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let gates = Array.of_list (Netlist.gates nl) in
      let picks = Array.to_list (Rng.sample (Rng.make seed) 3 gates) in
      let h = Hybrid.make nl picks in
      let lib = Sttc_tech.Library.cmos90 in
      let base = Sttc_analysis.Power.estimate lib nl in
      let hyb = Sttc_analysis.Power.estimate lib (Hybrid.programmed h) in
      hyb.Sttc_analysis.Power.total_uw
      >= base.Sttc_analysis.Power.total_uw -. 1e-9)

(* ---------- simulator vs formal semantics ---------- *)

let prop_sim_matches_truth =
  QCheck2.Test.make ~name:"bit-parallel simulator agrees with Boolean semantics"
    ~count:10 gen_seed
    (fun seed ->
      let nl =
        Generator.generate ~seed
          {
            Generator.design_name = Printf.sprintf "comb%d" seed;
            n_pi = 6;
            n_po = 4;
            n_ff = 0;
            n_gates = 25;
            levels = 6;
          }
      in
      (* each node's function of the 6 primary inputs, composed from the
         gates' own truth tables *)
      let pis = Array.of_list (Netlist.pis nl) in
      let fns = Array.make (Netlist.node_count nl) (Truth.const_false ~arity:6) in
      Array.iteri
        (fun i pi ->
          fns.(pi) <- Truth.create ~arity:6 (fun ins -> ins.(i)))
        pis;
      Array.iter
        (fun id ->
          let node = Netlist.node nl id in
          match node.Netlist.kind with
          | Netlist.Const v ->
              fns.(id) <-
                (if v then Truth.const_true ~arity:6 else Truth.const_false ~arity:6)
          | Netlist.Gate fn ->
              let ins = Array.map (fun s -> fns.(s)) node.Netlist.fanins in
              fns.(id) <-
                Truth.create ~arity:6 (fun row ->
                    Truth.eval (Gate_fn.truth fn)
                      (Array.map (fun t -> Truth.eval t row) ins))
          | Netlist.Pi | Netlist.Lut _ | Netlist.Dff -> ())
        (Netlist.topo_order nl);
      let sim = Sttc_sim.Simulator.create nl in
      let rng = Rng.make (seed + 1) in
      let lanes = Array.map (fun _ -> Rng.int64 rng) pis in
      let outs = Sttc_sim.Simulator.eval_comb sim lanes in
      let lane = 13 in
      let bit v = Int64.logand (Int64.shift_right_logical v lane) 1L = 1L in
      let row = Array.map bit lanes in
      Array.for_all Fun.id
        (Array.mapi
           (fun i (_, driver) -> Truth.eval fns.(driver) row = bit outs.(i))
           (Netlist.outputs nl)))

(* ---------- incremental timing & activity differentials ----------

   The incremental engine's contract is exactness, not approximation:
   every quantity it produces must be bit-identical to a from-scratch
   analysis of the modified netlist.  These properties drive random
   netlists through random replacement sets and compare with [=]. *)

module Sta = Sttc_analysis.Sta
module Activity = Sttc_analysis.Activity
module Algorithms = Sttc_core.Algorithms
module Select = Sttc_core.Select

let cmos = Sttc_tech.Library.cmos90

let random_gate_subset seed nl k =
  let gates = Array.of_list (Netlist.gates nl) in
  let k = min k (Array.length gates) in
  if k = 0 then [] else Array.to_list (Rng.sample (Rng.make seed) k gates)

let arrivals_equal nl a b =
  let n = Netlist.node_count nl in
  let rec go i =
    i >= n || (Sta.arrival_ps a i = Sta.arrival_ps b i && go (i + 1))
  in
  go 0

let prop_retime_matches_analyze =
  QCheck2.Test.make ~name:"retime is bit-identical to from-scratch analyze"
    ~count:15
    QCheck2.Gen.(pair gen_seed (int_range 1 8))
    (fun (seed, k) ->
      let nl = gen_netlist seed in
      let base = Sta.analyze cmos nl in
      let picks = random_gate_subset (seed + 17) nl k in
      let nl' = Transform.replace_many ~keep_function:false nl picks in
      let inc = Sta.retime cmos base nl' in
      let full = Sta.analyze cmos nl' in
      arrivals_equal nl' inc full
      && Sta.critical_delay_ps inc = Sta.critical_delay_ps full
      && Sta.critical_path inc = Sta.critical_path full)

let prop_trial_session_matches_scratch =
  (* a persistent trial session advanced through a drifting sequence of
     candidate sets must agree with a fresh replace+analyze at every
     step — the exact access pattern of the selection loops *)
  QCheck2.Test.make ~name:"trial sessions track from-scratch STA exactly"
    ~count:10 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let base = Sta.analyze cmos nl in
      let tr = Sta.trial cmos base in
      List.for_all
        (fun (i, k) ->
          let target = random_gate_subset (seed + (31 * i) + 7) nl k in
          Sta.trial_set tr target;
          let full =
            Sta.analyze cmos
              (Transform.replace_many ~keep_function:false nl target)
          in
          let d, p = Sta.trial_current_critical tr in
          d = Sta.critical_delay_ps full
          && p = Sta.critical_path full
          && Sta.trial_current_delay_ps tr = Sta.critical_delay_ps full)
        [ (0, 3); (1, 5); (2, 1); (3, 4); (4, 0); (5, 2) ])

let prop_activity_refine_matches_full =
  QCheck2.Test.make ~name:"Activity.refine is bit-identical to the full fixpoint"
    ~count:12
    QCheck2.Gen.(triple gen_seed (int_range 1 6) bool)
    (fun (seed, k, keep_function) ->
      let nl = gen_netlist seed in
      let base = Activity.analyze nl in
      let picks = random_gate_subset (seed + 5) nl k in
      let nl' = Transform.replace_many ~keep_function nl picks in
      let inc = Activity.refine base nl' in
      let full = Activity.analyze nl' in
      let n = Netlist.node_count nl' in
      let rec go i =
        i >= n
        || (Activity.switching inc i = Activity.switching full i && go (i + 1))
      in
      go 0)

let prop_select_queries_match_full =
  (* one Select context answers a drifting sequence of candidate sets,
     the way the parametric selection asks them; every answer must equal
     a from-scratch analysis of the replaced netlist.  The selection
     reads timing only through these two calls, so equal answers give
     equal selections. *)
  QCheck2.Test.make ~name:"Select timing queries match from-scratch STA"
    ~count:12 gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let ctx = Select.prepare ~rng:(Rng.make seed) cmos nl in
      let tr = Lazy.force ctx.Select.trial in
      (* [critical_first] picks which of the two reads meets the new set
         first, and so which one pays for the delta *)
      let answers_match (critical_first, set) =
        let full =
          Sta.analyze cmos (Transform.replace_many ~keep_function:true nl set)
        in
        let d = Sta.critical_delay_ps full in
        let critical_matches () =
          Sta.trial_set tr set;
          Sta.trial_current_critical tr = (d, Sta.critical_path full)
        in
        let verdicts_match () =
          List.for_all
            (fun clock_ps ->
              Sta.trial_set tr set;
              (Sta.trial_current_delay_ps tr <= clock_ps) = (d <= clock_ps))
            [ Float.pred d; d; 1.05 *. Sta.critical_delay_ps ctx.Select.sta ]
        in
        if critical_first then critical_matches () && verdicts_match ()
        else verdicts_match () && critical_matches ()
      in
      (* retract the first member on the set's critical path, as the
         repair loop does *)
      let retract set =
        let critical =
          Sta.critical_path
            (Sta.analyze cmos
               (Transform.replace_many ~keep_function:true nl set))
        in
        match List.filter (fun id -> List.mem id set) critical with
        | [] -> set
        | worst :: _ -> List.filter (( <> ) worst) set
      in
      let on_base_critical =
        List.filter
          (fun id ->
            match Netlist.kind nl id with Netlist.Gate _ -> true | _ -> false)
          (Sta.critical_path ctx.Select.sta)
      in
      let outside_cones =
        let in_cone = Array.make (Netlist.node_count nl) false in
        List.iter
          (fun ep ->
            List.iter
              (fun id -> in_cone.(id) <- true)
              (Sttc_netlist.Query.fanin_cone nl ep))
          (Netlist.pos nl
          @ List.map (fun ff -> (Netlist.fanins nl ff).(0)) (Netlist.dffs nl));
        List.filter (fun id -> not in_cone.(id)) (Netlist.gates nl)
      in
      let small = random_gate_subset (seed + 3) nl 2 in
      let grown =
        List.sort_uniq compare
          (small @ random_gate_subset (seed + 5) nl 4 @ on_base_critical)
      in
      let once = retract grown in
      let twice = retract once in
      List.for_all answers_match
        [
          (false, small);
          (true, grown);
          (false, once);
          (true, twice);
          (false, twice);
          (true, List.sort_uniq compare (twice @ outside_cones));
          (false, []);
          (true, outside_cones);
          (false, grown);
        ])

(* The parametric hybrids (clock factor 1.05) of six generated circuits,
   each through a repair loop that retracts gates: md5 of the foundry
   view's .bench text and of the bitstream.  Candidate timing through
   full re-analysis and through the trial session gave these same
   digests when they were recorded. *)
let test_parametric_pinned () =
  let alg =
    Flow.Parametric
      { Algorithms.default_parametric with Algorithms.clock_factor = 1.05 }
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  List.iter
    (fun (seed, view, bits) ->
      let h = (protect ~seed alg (gen_netlist seed)).Flow.hybrid in
      let label = Printf.sprintf "seed %d" seed in
      Alcotest.(check string)
        (label ^ " foundry view") view
        (md5 (Sttc_netlist.Bench_io.to_string (Hybrid.foundry_view h)));
      Alcotest.(check string)
        (label ^ " bitstream") bits
        (md5
           (String.concat ";"
              (List.map
                 (fun (id, t) -> Printf.sprintf "%d:%s" id (Truth.to_string t))
                 (Hybrid.bitstream h)))))
    [
      (1, "6d516fd27c793f9a4294bf6b26a26d26", "c3b3644028c96a93fb48a2d6e323aff8");
      (7, "ecdad614bb82571e068d4e18c3e35fa3", "6ea910c7173c8a716bb943798e2df10f");
      (42, "9f35a9dac16792bd54fe5031521c0691", "e907973590b6c1766311d283d9bd46b3");
      (2016, "518dc1ba8906eb84b2a19bad9592315c", "d59b4f1e71e36149536eccec0ffac37c");
      (31337, "ad66808a321e35ea9e4a1beb3c8f21bd", "aad017891f9852e62173013370d52053");
      (99991, "c51a8c9c4fafaada95a10a8548a808d7", "095aaf1109482d6e9d97837adec74254");
    ]

let prop_lognum_prod_is_log_sum =
  QCheck2.Test.make ~name:"Lognum.prod equals the sum of logs" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) (float_range 0.5 1e6))
    (fun xs ->
      let p = Lognum.prod (List.map Lognum.of_float xs) in
      let expected = List.fold_left (fun acc x -> acc +. log10 x) 0. xs in
      Float.abs (Lognum.log10 p -. expected) < 1e-6)

let () =
  Alcotest.run "properties"
    [
      ( "flow",
        List.map to_case
          [
            prop_protect_program_identity;
            prop_foundry_view_has_no_configs;
            prop_hardening_preserves_function;
            prop_security_monotone;
          ]
        @ [
            Alcotest.test_case "absorption keeps primary outputs" `Quick
              test_absorb_keeps_outputs;
          ] );
      ( "transforms",
        List.map to_case
          [
            prop_optimize_equivalence;
            prop_sweep_equivalence_and_map;
            prop_scan_functional_mode;
            prop_scan_shift_any_state;
          ] );
      ( "io",
        List.map to_case
          [ prop_bench_roundtrip_with_luts; prop_provision_roundtrip ] );
      ( "analysis",
        List.map to_case
          [
            prop_segments_partition_path;
            prop_sta_arrival_monotone;
            prop_power_hybrid_exceeds_base;
          ] );
      ( "incremental",
        List.map to_case
          [
            prop_retime_matches_analyze;
            prop_trial_session_matches_scratch;
            prop_activity_refine_matches_full;
            prop_select_queries_match_full;
          ]
        @ [
            Alcotest.test_case "parametric hybrids pinned" `Quick
              test_parametric_pinned;
          ] );
      ( "semantics",
        List.map to_case [ prop_sim_matches_truth; prop_lognum_prod_is_log_sum ] );
    ]
