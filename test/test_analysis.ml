(* Tests for Sttc_analysis: static timing, path sampling (Section IV-A),
   activity propagation, power and area estimation. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Transform = Sttc_netlist.Transform
module Gate_fn = Sttc_logic.Gate_fn
module Sta = Sttc_analysis.Sta
module Paths = Sttc_analysis.Paths
module Activity = Sttc_analysis.Activity
module Power = Sttc_analysis.Power
module Area = Sttc_analysis.Area
module Library = Sttc_tech.Library
module Rng = Sttc_util.Rng

let lib = Library.cmos90

(* chain: a -> NOT n1 -> NOT n2 -> NOT n3 -> y *)
let inverter_chain n =
  let b = Netlist.Builder.create ~design_name:"chain" () in
  let a = Netlist.Builder.add_pi b "a" in
  let last = ref a in
  for i = 1 to n do
    last := Netlist.Builder.add_gate b (Printf.sprintf "n%d" i) Gate_fn.Not [| !last |]
  done;
  Netlist.Builder.add_output b "y" !last;
  Netlist.Builder.finalize b

let pipeline_circuit () =
  (* PI -> g1 -> FF1 -> g2 -> FF2 -> g3 -> PO; depth 2 FFs *)
  let b = Netlist.Builder.create ~design_name:"pipe" () in
  let a = Netlist.Builder.add_pi b "a" in
  let c = Netlist.Builder.add_pi b "c" in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.And 2) [| a; c |] in
  let ff1 = Netlist.Builder.add_dff b "ff1" g1 in
  let g2 = Netlist.Builder.add_gate b "g2" (Gate_fn.Or 2) [| ff1; c |] in
  let ff2 = Netlist.Builder.add_dff b "ff2" g2 in
  let g3 = Netlist.Builder.add_gate b "g3" (Gate_fn.Xor 2) [| ff2; a |] in
  Netlist.Builder.add_output b "y" g3;
  Netlist.Builder.finalize b

(* ---------- STA ---------- *)

let test_sta_chain_delay () =
  let nl = inverter_chain 5 in
  let sta = Sta.analyze lib nl in
  let not_delay = (Sttc_tech.Cmos_lib.gate Gate_fn.Not).Sttc_tech.Cell.delay_ps in
  Alcotest.(check (float 1e-6)) "5 inverters" (5. *. not_delay)
    (Sta.critical_delay_ps sta)

let test_sta_critical_path () =
  let nl = inverter_chain 3 in
  let sta = Sta.analyze lib nl in
  let path = Sta.critical_path sta in
  Alcotest.(check int) "path length (pi + 3 gates)" 4 (List.length path);
  Alcotest.(check string) "starts at pi" "a"
    (Netlist.name nl (List.hd path));
  Alcotest.(check string) "ends at endpoint" "n3"
    (Netlist.name nl (List.nth path (List.length path - 1)))

let test_sta_pipeline_stages () =
  let nl = pipeline_circuit () in
  let sta = Sta.analyze lib nl in
  (* endpoints: ff1.D (g1), ff2.D (g2), y (g3); the worst is the delay *)
  Alcotest.(check (float 0.)) "critical delay is the worst endpoint"
    (List.fold_left
       (fun acc name ->
         Float.max acc (Sta.arrival_ps sta (Netlist.find_exn nl name)))
       0. [ "g1"; "g2"; "g3" ])
    (Sta.critical_delay_ps sta);
  (* FF-launched stages include the clk-to-q delay *)
  let dffq = (Sttc_tech.Cmos_lib.dff).Sttc_tech.Cell.delay_ps in
  let g3 = Netlist.find_exn nl "g3" in
  let xor_d = (Sttc_tech.Cmos_lib.gate (Gate_fn.Xor 2)).Sttc_tech.Cell.delay_ps in
  Alcotest.(check (float 1e-6)) "g3 arrival" (dffq +. xor_d)
    (Sta.arrival_ps sta g3)

let test_sta_slack () =
  let nl = inverter_chain 2 in
  let sta = Sta.analyze lib nl in
  (* the critical delay is the clock period with zero slack *)
  Alcotest.(check (float 1e-9)) "zero slack at max frequency"
    (Sta.critical_delay_ps sta)
    (1000. /. Sta.max_frequency_ghz sta)

let test_sta_lut_slows_path () =
  let nl = inverter_chain 4 in
  let sta = Sta.analyze lib nl in
  let g = Netlist.find_exn nl "n2" in
  (* an inverter cannot be replaced by our flow (fan-in 1 is allowed for
     LUTs in general); replace and expect the critical delay to grow *)
  let nl2 = Transform.replace_gate_with_lut nl g in
  let sta2 = Sta.analyze lib nl2 in
  Alcotest.(check bool) "slower with LUT" true
    (Sta.critical_delay_ps sta2 > Sta.critical_delay_ps sta)

let test_sta_worst_paths_report () =
  let nl = pipeline_circuit () in
  let sta = Sta.analyze lib nl in
  let path = Sta.critical_path sta in
  let last = List.nth path (List.length path - 1) in
  Alcotest.(check (float 0.)) "the critical path ends at the worst arrival"
    (Sta.critical_delay_ps sta) (Sta.arrival_ps sta last);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " no later than the critical delay") true
        (Sta.arrival_ps sta (Netlist.find_exn nl name)
        <= Sta.critical_delay_ps sta))
    [ "g1"; "g2"; "g3" ]

(* ---------- Paths ---------- *)

let test_paths_find_io_path () =
  let nl = pipeline_circuit () in
  let g2 = Netlist.find_exn nl "g2" in
  (* a walk from every gate: each path starts at a PI and ends at the PO
     driver, and some pass through g2 *)
  let paths = Paths.sample ~rng:(Rng.make 1) ~fraction:1. ~min_ffs:0 nl in
  Alcotest.(check bool) "some path contains g2" true
    (List.exists (fun p -> List.mem g2 p.Paths.nodes) paths);
  List.iter
    (fun p ->
      (match Netlist.kind nl (List.hd p.Paths.nodes) with
      | Netlist.Pi -> ()
      | _ -> Alcotest.fail "must start at a PI");
      let last = List.nth p.Paths.nodes (List.length p.Paths.nodes - 1) in
      Alcotest.(check string) "ends at PO driver" "g3" (Netlist.name nl last))
    paths

let test_paths_segments () =
  let nl = pipeline_circuit () in
  (* the full-depth path (2 FFs) *)
  let p =
    match Paths.sample ~rng:(Rng.make 3) ~fraction:1. nl with
    | p :: _ when p.Paths.ff_count = 2 -> p
    | _ -> Alcotest.fail "no 2-FF path found"
  in
  let segs = Paths.segments nl p in
  Alcotest.(check int) "three segments" 3 (List.length segs);
  (match segs with
  | [ s1; s2; s3 ] ->
      Alcotest.(check bool) "s1 launches at PI" false s1.Paths.launches_at_ff;
      Alcotest.(check bool) "s1 captures at FF" true s1.Paths.captures_at_ff;
      Alcotest.(check bool) "s2 launches at FF" true s2.Paths.launches_at_ff;
      Alcotest.(check bool) "s3 captures at PO" false s3.Paths.captures_at_ff
  | _ -> Alcotest.fail "expected 3 segments");
  Alcotest.(check int) "replaceable gates" 3
    (List.length (Paths.gates_on_path nl p))

let test_paths_sample_sorted_and_deduped () =
  let nl =
    Generator.generate ~seed:4
      {
        Generator.design_name = "s";
        n_pi = 8;
        n_po = 6;
        n_ff = 10;
        n_gates = 120;
        levels = 8;
      }
  in
  let rng = Rng.make 7 in
  let paths = Paths.sample ~rng ~fraction:0.3 ~min_ffs:1 nl in
  Alcotest.(check bool) "found some" true (paths <> []);
  (* sorted by descending ff_count *)
  let rec sorted = function
    | a :: (b :: _ as rest) -> a.Paths.ff_count >= b.Paths.ff_count && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted paths);
  (* unique *)
  let keys = List.map (fun p -> p.Paths.nodes) paths in
  Alcotest.(check int) "deduped" (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_paths_sample_excludes_critical () =
  let nl =
    Generator.generate ~seed:9
      {
        Generator.design_name = "s";
        n_pi = 8;
        n_po = 6;
        n_ff = 10;
        n_gates = 150;
        levels = 8;
      }
  in
  let sta = Sta.analyze lib nl in
  let crit = Sta.critical_path sta in
  let rng = Rng.make 7 in
  let paths = Paths.sample ~rng ~fraction:0.5 ~min_ffs:1 ~exclude_critical:crit nl in
  let module Int_set = Set.Make (Int) in
  let crit_set = Int_set.of_list crit in
  (* under the preferred rule, no sampled path shares a node with the
     critical path (unless the fallback had to fire, in which case no path
     may contain the whole critical path) *)
  let disjoint =
    List.for_all
      (fun p -> not (List.exists (fun id -> Int_set.mem id crit_set) p.Paths.nodes))
      paths
  in
  let no_superset =
    List.for_all
      (fun p -> not (Int_set.subset crit_set (Int_set.of_list p.Paths.nodes)))
      paths
  in
  Alcotest.(check bool) "critical excluded" true (disjoint || no_superset)

let test_paths_fraction_validation () =
  let nl = pipeline_circuit () in
  Alcotest.check_raises "bad fraction"
    (Invalid_argument "Paths.sample: fraction") (fun () ->
      ignore (Paths.sample ~rng:(Rng.make 1) ~fraction:0. nl))

let test_paths_fraction_nan () =
  Alcotest.check_raises "NaN fraction"
    (Invalid_argument "Paths.sample: fraction") (fun () ->
      ignore (Paths.sample ~rng:(Rng.make 1) ~fraction:nan (pipeline_circuit ())))

(* ---------- Activity ---------- *)

let test_activity_constants () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let c1 = Netlist.Builder.add_const b "c1" true in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a; c1 |] in
  Netlist.Builder.add_output b "y" g;
  let nl = Netlist.Builder.finalize b in
  let act = Activity.analyze nl in
  Alcotest.(check (float 1e-9)) "const switching" 0. (Activity.switching act c1);
  (* AND with constant-1 passes a through: p = 0.5 *)
  Alcotest.(check (float 1e-9)) "gate switching" 0.5 (Activity.switching act g)

let test_activity_gate_probabilities () =
  let b = Netlist.Builder.create () in
  let x = Netlist.Builder.add_pi b "x" in
  let y = Netlist.Builder.add_pi b "y" in
  let and_g = Netlist.Builder.add_gate b "and_g" (Gate_fn.And 2) [| x; y |] in
  let xor_g = Netlist.Builder.add_gate b "xor_g" (Gate_fn.Xor 2) [| x; y |] in
  Netlist.Builder.add_output b "o1" and_g;
  Netlist.Builder.add_output b "o2" xor_g;
  let nl = Netlist.Builder.finalize b in
  let act = Activity.analyze nl in
  (* p = 1/4 and 1/2 *)
  Alcotest.(check (float 1e-9)) "and switching" 0.375 (Activity.switching act and_g);
  Alcotest.(check (float 1e-9)) "xor switching" 0.5 (Activity.switching act xor_g)

let test_activity_pi_probability () =
  let nl = inverter_chain 1 in
  let act = Activity.analyze ~pi_probability:0.9 nl in
  let g = Netlist.find_exn nl "n1" in
  (* p = 0.1 behind the inverter *)
  Alcotest.(check (float 1e-9)) "switching at p = 0.1" 0.18
    (Activity.switching act g)

let test_activity_pi_probability_nan () =
  Alcotest.check_raises "NaN pi_probability"
    (Invalid_argument "Activity.analyze: pi_probability") (fun () ->
      ignore (Activity.analyze ~pi_probability:nan (inverter_chain 1)))

let test_activity_sequential_fixpoint () =
  (* toggle flop: ff = DFF(NOT ff) settles at p = 0.5 *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  ignore a;
  let ff = Netlist.Builder.add_dff_deferred b "ff" in
  let inv = Netlist.Builder.add_gate b "inv" Gate_fn.Not [| ff |] in
  Netlist.Builder.set_dff_input b ff inv;
  Netlist.Builder.add_output b "y" inv;
  let nl = Netlist.Builder.finalize b in
  let act = Activity.analyze nl in
  (* p = 0.5 *)
  Alcotest.(check (float 0.005)) "toggle flop switching" 0.5
    (Activity.switching act ff)

let test_activity_unconfigured_lut () =
  let nl = inverter_chain 2 in
  let g = Netlist.find_exn nl "n1" in
  let nl2 = Transform.replace_gate_with_lut ~keep_function:false nl g in
  let act = Activity.analyze nl2 in
  Alcotest.(check (float 1e-9)) "missing LUT switching" 0.5 (Activity.switching act g)

let test_activity_bounds_property () =
  (* switching always within [0,0.5] on random circuits *)
  for seed = 0 to 9 do
    let nl =
      Generator.generate ~seed
        {
          Generator.design_name = "p";
          n_pi = 6;
          n_po = 5;
          n_ff = 4;
          n_gates = 60;
          levels = 6;
        }
    in
    let act = Activity.analyze nl in
    Netlist.iter
      (fun id _ ->
        let s = Activity.switching act id in
        Alcotest.(check bool) "alpha in [0,0.5]" true (s >= 0. && s <= 0.5))
      nl
  done

(* ---------- Activity: the compiled sweep ---------- *)

module Truth = Sttc_logic.Truth
module Profiles = Sttc_netlist.Iscas_profiles

(* The per-node fixpoint the compiled sweep replaced, kept here as the
   reference: a fanin-probability array and a gate table per node per
   sweep, rows read through [Truth.row]. *)
let reference_analyze ?(pi_probability = 0.5) ?(max_iterations = 40)
    ?(tolerance = 1e-4) nl =
  let truth_probability table input_probs =
    let n = Truth.arity table in
    let total = ref 0. in
    for r = 0 to (1 lsl n) - 1 do
      if Truth.row table r then begin
        let p = ref 1. in
        for k = 0 to n - 1 do
          let pk = input_probs.(k) in
          p := !p *. (if (r lsr k) land 1 = 1 then pk else 1. -. pk)
        done;
        total := !total +. !p
      end
    done;
    Float.min 1. (Float.max 0. !total)
  in
  let prob = Array.make (Netlist.node_count nl) 0.5 in
  Netlist.iter
    (fun id node ->
      match node.Netlist.kind with
      | Netlist.Pi -> prob.(id) <- pi_probability
      | Netlist.Const v -> prob.(id) <- (if v then 1. else 0.)
      | _ -> ())
    nl;
  let propagate_comb () =
    Array.iter
      (fun id ->
        let node = Netlist.node nl id in
        let ip () = Array.map (fun s -> prob.(s)) node.Netlist.fanins in
        match node.Netlist.kind with
        | Netlist.Gate fn -> prob.(id) <- truth_probability (Gate_fn.truth fn) (ip ())
        | Netlist.Lut { config = Some c; _ } -> prob.(id) <- truth_probability c (ip ())
        | Netlist.Lut { config = None; _ } -> prob.(id) <- 0.5
        | Netlist.Pi | Netlist.Const _ | Netlist.Dff -> ())
      (Netlist.topo_order nl)
  in
  let dffs = Netlist.dffs nl in
  let rec iterate k =
    propagate_comb ();
    let delta = ref 0. in
    List.iter
      (fun ff ->
        let next = prob.((Netlist.fanins nl ff).(0)) in
        delta := Float.max !delta (Float.abs (next -. prob.(ff)));
        prob.(ff) <- next)
      dffs;
    if !delta > tolerance && k < max_iterations then iterate (k + 1)
  in
  if dffs = [] then propagate_comb () else iterate 1;
  prob

let same_bits act prob =
  Array.for_all Fun.id
    (Array.mapi
       (fun id p ->
         Int64.equal
           (Int64.bits_of_float (2. *. p *. (1. -. p)))
           (Int64.bits_of_float (Activity.switching act id)))
       prob)

(* A random sequential netlist drawing on every node kind the sweep
   distinguishes: constants, every valid gate function, configured LUTs
   of arity 1..6, unconfigured LUTs, and flip-flops fed back from
   anywhere in the logic. *)
let random_sequential seed =
  let rng = Rng.make seed in
  let b = Netlist.Builder.create ~design_name:"sweep" () in
  let signals = ref [] in
  let add id = signals := id :: !signals in
  for i = 0 to Rng.int rng 4 do
    add (Netlist.Builder.add_pi b (Printf.sprintf "pi%d" i))
  done;
  for i = 0 to Rng.int rng 2 - 1 do
    add (Netlist.Builder.add_const b (Printf.sprintf "k%d" i) (Rng.bool rng))
  done;
  let ffs =
    List.init (Rng.int rng 4) (fun i ->
        Netlist.Builder.add_dff_deferred b (Printf.sprintf "ff%d" i))
  in
  List.iter add ffs;
  let gates = Array.of_list Gate_fn.all in
  for i = 0 to 10 + Rng.int rng 30 do
    let pool = Array.of_list !signals in
    let fanins n = Array.init n (fun _ -> Rng.pick rng pool) in
    let name = Printf.sprintf "n%d" i in
    add
      (match Rng.int rng 4 with
      | 0 | 1 ->
          let fn = Rng.pick rng gates in
          Netlist.Builder.add_gate b name fn (fanins (Gate_fn.arity fn))
      | 2 ->
          let arity = 1 + Rng.int rng Truth.max_arity in
          (* the top 2^arity bits of a random word, as the table *)
          let config =
            Truth.of_bits ~arity
              (Int64.shift_right_logical (Rng.int64 rng) (64 - (1 lsl arity)))
          in
          Netlist.Builder.add_lut b name ~config (fanins arity)
      | _ -> Netlist.Builder.add_lut b name (fanins (1 + Rng.int rng 3)))
  done;
  let pool = Array.of_list !signals in
  List.iter (fun ff -> Netlist.Builder.set_dff_input b ff (Rng.pick rng pool)) ffs;
  Netlist.Builder.add_output b "y" (List.hd !signals);
  Netlist.Builder.finalize b

let prop_sweep_matches_reference =
  QCheck2.Test.make
    ~name:"compiled sweep is bit-identical to the per-node reference"
    ~count:300
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (float_range 0. 1.) (int_range 1 40))
    (fun (seed, pi_probability, max_iterations) ->
      let nl = random_sequential seed in
      same_bits (Activity.analyze nl) (reference_analyze nl)
      && same_bits
           (Activity.analyze ~pi_probability ~max_iterations ~tolerance:1e-9 nl)
           (reference_analyze ~pi_probability ~max_iterations ~tolerance:1e-9 nl))

(* Digests of every node's switching bits, which pin the sweep's
   probabilities up to p <-> 1 - p *)
let switching_digest nl =
  let act = Activity.analyze nl in
  let b = Buffer.create 4096 in
  for id = 0 to Netlist.node_count nl - 1 do
    Buffer.add_string b
      (Printf.sprintf "%Lx," (Int64.bits_of_float (Activity.switching act id)))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_twin_probabilities =
  [
    ("s641", "6c9e90f9c3e06ee1c601b42c73eb304c");
    ("s820", "621f751849721a25272e77571d9a5c38");
    ("s832", "46324946908805a9ba43ba941fe73dfb");
    ("s953", "a62f23e3a04cd18d78e3174e2103d43b");
    ("s1196", "03e0a407396ca0c3869f60251d07d4dd");
    ("s1238", "d69e8b1d94eecf2fff03e987e98054b0");
    ("s1488", "d77921bd559aa39bad46f17fc130bb9d");
    ("s5378a", "31a3d4b98c36cbe0700ead982641a983");
    ("s9234a", "ae58b50bd3bc8da04ab8ae50dee5ba3c");
    ("s13207", "efcce904d4462da1594a1672f1c1c195");
    ("s15850a", "7f6bcb3955a3ff487c01f5430334476c");
    ("s38584", "a322e9f2eb863e273b4438a4be7bf122");
  ]

(* the 10^4-gate families at seed 1 *)
let pinned_family_probabilities =
  [
    (Generator.Slike, "697524af20035346c15003c84a9af219");
    (Generator.Wide, "897f5328cf324c6eff76fa3e2a8a793b");
    (Generator.Deep, "a5917ad911a174b6c2978e92d342bf65");
    (Generator.Fanout_heavy, "b8fa2843443e5271b3c5fbdb0b150cdd");
  ]

let test_sweep_pinned () =
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string) name digest
        (switching_digest (Profiles.build_by_name name)))
    pinned_twin_probabilities;
  Alcotest.(check (list string)) "every twin pinned" Profiles.names
    (List.map fst pinned_twin_probabilities);
  List.iter
    (fun (profile, digest) ->
      let nl = Generator.generate_family ~seed:1 ~profile ~gates:10_000 () in
      Alcotest.(check string) (Netlist.design_name nl) digest
        (switching_digest nl))
    pinned_family_probabilities

(* [refine base nl] with observability on, and the counters it left *)
let refine_counted base nl =
  let module Obs = Sttc_obs.Obs in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let r = Activity.refine base nl in
      (r, Sttc_obs.Metrics.snapshot ()))

let test_refine_non_default_base () =
  (* a base computed with other parameters cannot be reused: refine must
     return the default analysis, counted as a full fallback *)
  let nl = inverter_chain 3 in
  let base = Activity.analyze ~pi_probability:0.9 nl in
  let refined, snap = refine_counted base nl in
  Alcotest.(check int) "counted as activity.refine.full" 1
    (Sttc_obs.Metrics.counter_value snap "activity.refine.full");
  Alcotest.(check bool) "equals the default analysis" true
    (same_bits refined (reference_analyze nl));
  Alcotest.(check (float 0.)) "n1 at the default PI probability" 0.5
    (Activity.switching refined (Netlist.find_exn nl "n1"))

let test_refine_changed_function () =
  (* the same structure with one gate's function changed (an unconfigured
     LUT in place of n2) moves probabilities downstream: refine runs the
     full fixpoint; keeping the function reuses the base *)
  let nl = inverter_chain 3 in
  let base = Activity.analyze nl in
  let n2 = Netlist.find_exn nl "n2" in
  let changed = Transform.replace_many ~keep_function:false nl [ n2 ] in
  let refined, snap = refine_counted base changed in
  Alcotest.(check int) "counted as activity.refine.full" 1
    (Sttc_obs.Metrics.counter_value snap "activity.refine.full");
  Alcotest.(check bool) "equals analyze" true
    (same_bits refined (reference_analyze changed));
  let kept = Transform.replace_many ~keep_function:true nl [ n2 ] in
  let refined, snap = refine_counted base kept in
  Alcotest.(check int) "a kept function counts activity.refine.cone" 1
    (Sttc_obs.Metrics.counter_value snap "activity.refine.cone");
  Alcotest.(check bool) "and equals analyze" true
    (same_bits refined (reference_analyze kept))

(* ---------- Paths and Query on the sub-1000-gate twins ---------- *)

let small_twins = [ "s641"; "s820"; "s832"; "s953"; "s1196"; "s1238"; "s1488" ]

(* Every sampled node list and FF count, under the protect flow's
   arguments (critical path excluded), at one seed. *)
let sample_digest nl seed =
  let crit = Sta.critical_path (Sta.analyze lib nl) in
  let paths = Paths.sample ~rng:(Rng.make seed) ~exclude_critical:crit nl in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int p.Paths.ff_count);
      Buffer.add_char b ':';
      List.iter
        (fun id ->
          Buffer.add_string b (string_of_int id);
          Buffer.add_char b ',')
        p.Paths.nodes;
      Buffer.add_char b ';')
    paths;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* recorded before the walks moved onto stamped arrays *)
let pinned_samples =
  [
    ( "s641",
      "1e8704c90e6dab6b8c16c3ac5c37649f",
      "aa7ed7cbfd896f051142f1eab68e099e" );
    ( "s820",
      "05b549c561d0f85966abab9286e9beed",
      "72a8514858792f428be430d42b3fb164" );
    ( "s832",
      "bd990d4861d342d6309967adaa10bb51",
      "1b9e6fa48a33f712352274604f123242" );
    ( "s953",
      "06feecaed509d97ac03584625063f409",
      "c31ba983f7d402172015d10390842aec" );
    ( "s1196",
      "39b1335ea21b91687d2fd1c205473956",
      "4bb2a748b022e0e73ad0ac39f0e1071b" );
    ( "s1238",
      "2f42ccac82d14d1cfef085c144875c58",
      "cdec44b7293ea600dd000e31c1c9cde9" );
    ( "s1488",
      "ae7642408eaa9627f7ba11bea49f9585",
      "6df0559a4b1c7c4cf1c08475b01148af" );
  ]

let test_paths_sample_pinned () =
  Alcotest.(check (list string)) "every small twin pinned" small_twins
    (List.map (fun (name, _, _) -> name) pinned_samples);
  List.iter
    (fun (name, at1, at7) ->
      let nl = Profiles.build_by_name name in
      Alcotest.(check string) (name ^ " seed 1") at1 (sample_digest nl 1);
      Alcotest.(check string) (name ^ " seed 7") at7 (sample_digest nl 7))
    pinned_samples

module Query = Sttc_netlist.Query

(* Plain per-node references: Bellman-Ford relaxation to a fixpoint for
   the FF-weighted distance to a primary output, and a recursive
   fanin walk for the sources of a cone. *)
let reference_depth_to_po nl =
  let n = Netlist.node_count nl in
  let dist = Array.make n max_int in
  List.iter (fun id -> dist.(id) <- 0) (Netlist.pos nl);
  let changed = ref true in
  while !changed do
    changed := false;
    for id = 0 to n - 1 do
      if dist.(id) < max_int then begin
        let cost =
          match Netlist.kind nl id with Netlist.Dff -> 1 | _ -> 0
        in
        Array.iter
          (fun src ->
            if dist.(id) + cost < dist.(src) then begin
              dist.(src) <- dist.(id) + cost;
              changed := true
            end)
          (Netlist.fanins nl id)
      end
    done
  done;
  dist

let reference_cone_inputs nl nodes =
  let inputs = ref [] and seen = Array.make (Netlist.node_count nl) false in
  let rec go id =
    if not seen.(id) then begin
      seen.(id) <- true;
      if Netlist.is_combinational (Netlist.kind nl id) then
        Array.iter go (Netlist.fanins nl id)
      else inputs := id :: !inputs
    end
  in
  List.iter
    (fun id ->
      if Netlist.is_combinational (Netlist.kind nl id) then
        Array.iter go (Netlist.fanins nl id)
      else inputs := id :: !inputs)
    nodes;
  List.sort_uniq Int.compare !inputs

(* The mean switching over combinational nodes, summed as a list fold
   over descending ids, must stay the same to the bit. *)
let test_average_switching_order () =
  List.iter
    (fun name ->
      let nl = Profiles.build_by_name name in
      let act = Activity.analyze nl in
      let ids =
        Netlist.fold
          (fun id n acc ->
            if Netlist.is_combinational n.Netlist.kind then id :: acc else acc)
          nl []
      in
      let reference =
        List.fold_left (fun acc id -> acc +. Activity.switching act id) 0. ids
        /. float_of_int (List.length ids)
      in
      Alcotest.(check int64) name
        (Int64.bits_of_float reference)
        (Int64.bits_of_float (Activity.average_switching act)))
    small_twins

let test_queries_on_small_twins () =
  List.iter
    (fun name ->
      let nl = Profiles.build_by_name name in
      Alcotest.(check (array int)) (name ^ " depth to PO")
        (reference_depth_to_po nl) (Query.sequential_depth_to_po nl);
      Alcotest.(check (list int)) (name ^ " cone inputs of every gate")
        (reference_cone_inputs nl (Netlist.gates nl))
        (Query.cone_inputs nl (Netlist.gates nl)))
    small_twins

let prop_queries_match_reference =
  QCheck2.Test.make
    ~name:"sequential depth and cone inputs equal the per-node references"
    ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (seed, pick) ->
      let nl = random_sequential seed in
      let rng = Rng.make pick in
      let n = Netlist.node_count nl in
      let nodes = List.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n) in
      Query.sequential_depth_to_po nl = reference_depth_to_po nl
      && Query.cone_inputs nl nodes = reference_cone_inputs nl nodes
      && Query.cone_inputs nl (Netlist.luts nl)
         = reference_cone_inputs nl (Netlist.luts nl))

(* The dependency count against a plain model: a depth-first walk from
   each member over combinational fanouts, counting the other members
   it meets.  A flip-flop member starts no walk and the walk never
   enters a flip-flop. *)
let reference_pair_count nl ids =
  let members = List.sort_uniq Int.compare ids in
  let is_member = Array.make (Netlist.node_count nl) false in
  List.iter (fun id -> is_member.(id) <- true) members;
  let count_from a =
    let seen = Array.make (Netlist.node_count nl) false in
    let count = ref 0 in
    let rec walk id =
      List.iter
        (fun out ->
          if Netlist.is_combinational (Netlist.kind nl out) && not seen.(out)
          then begin
            seen.(out) <- true;
            if is_member.(out) then incr count;
            walk out
          end)
        (Netlist.fanouts nl id)
    in
    (match Netlist.kind nl a with Netlist.Dff -> () | _ -> walk a);
    !count
  in
  List.fold_left (fun acc a -> acc + count_from a) 0 members

(* Many flip-flops fed from anywhere, gates and unconfigured LUTs, up to
   ~330 nodes so a member set often spans several 63-member blocks. *)
let random_dff_heavy seed =
  let rng = Rng.make seed in
  let b = Netlist.Builder.create ~design_name:"pairs" () in
  let signals = ref [] in
  let add id = signals := id :: !signals in
  for i = 0 to Rng.int rng 6 do
    add (Netlist.Builder.add_pi b (Printf.sprintf "pi%d" i))
  done;
  if Rng.bool rng then add (Netlist.Builder.add_const b "k" (Rng.bool rng));
  let ffs =
    List.init (Rng.int rng 60) (fun i ->
        Netlist.Builder.add_dff_deferred b (Printf.sprintf "ff%d" i))
  in
  List.iter add ffs;
  let gates = Array.of_list Gate_fn.all in
  for i = 0 to 20 + Rng.int rng 250 do
    let pool = Array.of_list !signals in
    let fanins n = Array.init n (fun _ -> Rng.pick rng pool) in
    let name = Printf.sprintf "n%d" i in
    add
      (if Rng.bool rng then
         let fn = Rng.pick rng gates in
         Netlist.Builder.add_gate b name fn (fanins (Gate_fn.arity fn))
       else Netlist.Builder.add_lut b name (fanins (1 + Rng.int rng 3)))
  done;
  let pool = Array.of_list !signals in
  List.iter (fun ff -> Netlist.Builder.set_dff_input b ff (Rng.pick rng pool)) ffs;
  Netlist.Builder.add_output b "y" (List.hd !signals);
  Netlist.Builder.finalize b

let prop_pair_count_matches_reference =
  QCheck2.Test.make
    ~name:"dependent pair count equals the per-member walk" ~count:300
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1_000_000))
    (fun (seed, pick) ->
      let nl = random_dff_heavy seed in
      let rng = Rng.make pick in
      let share = Rng.int rng 101 in
      (* any node kind, in a shuffled order, with an occasional repeat *)
      let ids =
        List.filter_map
          (fun id ->
            if Rng.int rng 100 < share then Some (Rng.int rng 1000, id)
            else None)
          (List.init (Netlist.node_count nl) Fun.id)
        |> List.sort compare |> List.map snd
      in
      let ids = match ids with id :: _ when Rng.bool rng -> id :: ids | _ -> ids in
      Query.connected_lut_pair_count nl ids = reference_pair_count nl ids
      && Query.connected_lut_pair_count nl (Netlist.luts nl)
         = reference_pair_count nl (Netlist.luts nl))

(* A chain of 70 LUTs (two 63-member blocks) with a flip-flop between
   the 35th and the 36th: each half counts its 35 x 34 / 2 ordered pairs
   and nothing crosses the flip-flop. *)
let test_pair_count_cases () =
  let b = Netlist.Builder.create ~design_name:"chain" () in
  let prev = ref (Netlist.Builder.add_pi b "a") in
  let luts =
    List.init 70 (fun i ->
        if i = 35 then prev := Netlist.Builder.add_dff b "ff" !prev;
        let id = Netlist.Builder.add_lut b (Printf.sprintf "l%d" i) [| !prev |] in
        prev := id;
        id)
  in
  Netlist.Builder.add_output b "y" !prev;
  let nl = Netlist.Builder.finalize b in
  let count = Query.connected_lut_pair_count nl in
  Alcotest.(check int) "two halves" (2 * 35 * 34 / 2) (count luts);
  Alcotest.(check int) "block order does not matter" (2 * 35 * 34 / 2)
    (count (List.rev luts));
  Alcotest.(check int) "direct edge" 1 (count [ List.nth luts 3; List.nth luts 4 ]);
  Alcotest.(check int) "LUT -> DFF -> LUT" 0
    (count [ List.nth luts 34; List.nth luts 35 ]);
  Alcotest.(check int) "a flip-flop member" 0
    (count [ Netlist.find_exn nl "ff"; List.nth luts 35 ]);
  Alcotest.(check int) "no members" 0 (count []);
  List.iter
    (fun id ->
      Alcotest.check_raises "bad id"
        (Invalid_argument "Query.connected_lut_pair_count: bad id") (fun () ->
          ignore (count [ List.hd luts; id ])))
    [ -1; Netlist.node_count nl ]

(* ---------- Power ---------- *)

let test_power_report_consistency () =
  let nl = inverter_chain 10 in
  let r = Power.estimate lib nl in
  Alcotest.(check (float 1e-9)) "total = dyn + leak"
    (r.Power.dynamic_uw +. r.Power.leakage_uw)
    r.Power.total_uw;
  Alcotest.(check (float 1e-9)) "no stt" 0. r.Power.stt_uw;
  Alcotest.(check bool) "positive" true (r.Power.total_uw > 0.)

let test_power_lut_increases () =
  let nl = inverter_chain 10 in
  let g = Netlist.find_exn nl "n5" in
  let nl2 = Transform.replace_gate_with_lut nl g in
  let r1 = Power.estimate lib nl and r2 = Power.estimate lib nl2 in
  Alcotest.(check bool) "hybrid burns more" true
    (r2.Power.total_uw > r1.Power.total_uw);
  Alcotest.(check bool) "stt share positive" true (r2.Power.stt_uw > 0.);
  Alcotest.(check bool) "overhead positive" true
    (Sttc_util.Stats.relative_overhead ~base:r1.Power.total_uw
       ~modified:r2.Power.total_uw
    > 0.)

(* ---------- Area ---------- *)

let test_area_report () =
  let nl = pipeline_circuit () in
  let r = Area.estimate lib nl in
  Alcotest.(check (float 1e-9)) "total = parts"
    (r.Area.gates_um2 +. r.Area.luts_um2 +. r.Area.dffs_um2)
    r.Area.total_um2;
  Alcotest.(check bool) "dff area positive" true (r.Area.dffs_um2 > 0.)

let test_area_lut_overhead () =
  let nl = pipeline_circuit () in
  let g = Netlist.find_exn nl "g2" in
  let nl2 = Transform.replace_gate_with_lut nl g in
  let r1 = Area.estimate lib nl and r2 = Area.estimate lib nl2 in
  Alcotest.(check bool) "lut bigger than gate" true
    (Sttc_util.Stats.relative_overhead ~base:r1.Area.total_um2
       ~modified:r2.Area.total_um2
    > 0.)

let () =
  Alcotest.run "sttc_analysis"
    [
      ( "sta",
        [
          Alcotest.test_case "chain delay" `Quick test_sta_chain_delay;
          Alcotest.test_case "critical path" `Quick test_sta_critical_path;
          Alcotest.test_case "pipeline stages" `Quick test_sta_pipeline_stages;
          Alcotest.test_case "slack" `Quick test_sta_slack;
          Alcotest.test_case "lut slows path" `Quick test_sta_lut_slows_path;
          Alcotest.test_case "worst paths report" `Quick test_sta_worst_paths_report;
        ] );
      ( "paths",
        [
          Alcotest.test_case "find io path" `Quick test_paths_find_io_path;
          Alcotest.test_case "segments" `Quick test_paths_segments;
          Alcotest.test_case "sample sorted/deduped" `Quick
            test_paths_sample_sorted_and_deduped;
          Alcotest.test_case "critical excluded" `Quick
            test_paths_sample_excludes_critical;
          Alcotest.test_case "fraction validation" `Quick
            test_paths_fraction_validation;
          Alcotest.test_case "pinned samples" `Quick test_paths_sample_pinned;
          Alcotest.test_case "NaN fraction" `Quick test_paths_fraction_nan;
        ] );
      ( "query",
        [
          QCheck_alcotest.to_alcotest prop_queries_match_reference;
          Alcotest.test_case "small twins" `Quick test_queries_on_small_twins;
          QCheck_alcotest.to_alcotest prop_pair_count_matches_reference;
          Alcotest.test_case "pair count cases" `Quick test_pair_count_cases;
        ] );
      ( "activity",
        [
          Alcotest.test_case "constants" `Quick test_activity_constants;
          Alcotest.test_case "gate probabilities" `Quick
            test_activity_gate_probabilities;
          Alcotest.test_case "pi probability" `Quick test_activity_pi_probability;
          Alcotest.test_case "NaN pi probability" `Quick
            test_activity_pi_probability_nan;
          Alcotest.test_case "sequential fixpoint" `Quick
            test_activity_sequential_fixpoint;
          Alcotest.test_case "unconfigured lut" `Quick test_activity_unconfigured_lut;
          Alcotest.test_case "bounds on random circuits" `Quick
            test_activity_bounds_property;
          Alcotest.test_case "refine with a non-default base" `Quick
            test_refine_non_default_base;
          Alcotest.test_case "refine with a changed function" `Quick
            test_refine_changed_function;
        ] );
      ( "activity sweep",
        [
          QCheck_alcotest.to_alcotest prop_sweep_matches_reference;
          Alcotest.test_case "pinned probabilities" `Slow test_sweep_pinned;
          Alcotest.test_case "average switching order" `Quick
            test_average_switching_order;
        ] );
      ( "power",
        [
          Alcotest.test_case "report consistency" `Quick test_power_report_consistency;
          Alcotest.test_case "lut increases power" `Quick test_power_lut_increases;
        ] );
      ( "area",
        [
          Alcotest.test_case "report" `Quick test_area_report;
          Alcotest.test_case "lut overhead" `Quick test_area_lut_overhead;
        ] );
    ]
