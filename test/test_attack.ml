(* Tests for Sttc_attack: the oracle, the symbolic-key CNF encoding, and
   all four attacks, including the security asymmetry the paper claims
   (independent selection resolvable, dependent selection resistant). *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Rng = Sttc_util.Rng
module Hybrid = Sttc_core.Hybrid
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Oracle = Sttc_attack.Oracle
module Encode = Sttc_sim.Encode
module Sat_attack = Sttc_attack.Sat_attack
module Tt_attack = Sttc_attack.Tt_attack
module Brute_force = Sttc_attack.Brute_force
module Guess_attack = Sttc_attack.Guess_attack
module Harness = Sttc_attack.Harness
module Dpa = Sttc_attack.Dpa

let small_circuit seed =
  Generator.generate ~seed
    {
      Generator.design_name = "atk";
      n_pi = 8;
      n_po = 6;
      n_ff = 5;
      n_gates = 60;
      levels = 6;
    }

let protect_n nl n seed =
  (* n observable gates replaced *)
  let seq_depth = Sttc_netlist.Query.sequential_depth_to_po nl in
  let gates =
    List.filter (fun id -> seq_depth.(id) < max_int) (Netlist.gates nl)
  in
  let rng = Rng.make seed in
  let picks = Array.to_list (Rng.sample rng n (Array.of_list gates)) in
  Hybrid.make nl picks

(* ---------- Oracle ---------- *)

let test_oracle_interface () =
  let nl = small_circuit 1 in
  let h = protect_n nl 2 1 in
  let o = Oracle.create h in
  Alcotest.(check int) "inputs = pis + ffs"
    (List.length (Netlist.pis nl) + List.length (Netlist.dffs nl))
    (List.length (Oracle.input_names o));
  Alcotest.(check int) "no queries yet" 0 (Oracle.queries o);
  let inputs = Array.make (List.length (Oracle.input_names o)) false in
  let out1 = Oracle.query o inputs in
  Alcotest.(check int) "counted" 1 (Oracle.queries o);
  Alcotest.(check int) "outputs = pos + ffs"
    (Array.length (Netlist.outputs nl) + List.length (Netlist.dffs nl))
    (Array.length out1)

let test_oracle_matches_programmed_netlist () =
  let nl = small_circuit 2 in
  let h = protect_n nl 3 2 in
  let o = Oracle.create h in
  (* the oracle must behave exactly like the original circuit *)
  let original = Oracle.of_netlist nl in
  let inputs = List.length (Oracle.input_names original) in
  let rng = Rng.make 3 in
  for _ = 1 to 16 do
    let lanes = Array.init inputs (fun _ -> Rng.int64 rng) in
    Alcotest.(check bool) "oracle = original" true
      (Oracle.query_lanes original lanes = Oracle.query_lanes o lanes)
  done

(* ---------- Encode ---------- *)

let test_encode_key_structure () =
  let nl = small_circuit 3 in
  let h = protect_n nl 2 3 in
  let keyed = Encode.encode (Hybrid.foundry_view h) in
  Alcotest.(check int) "two keyed luts" 2 (List.length keyed.Encode.keys);
  List.iter
    (fun (id, key) ->
      match Netlist.kind (Hybrid.foundry_view h) id with
      | Netlist.Lut { arity; _ } ->
          Alcotest.(check int) "key rows" (1 lsl arity) (Array.length key)
      | _ -> Alcotest.fail "key target must be a LUT")
    keyed.Encode.keys

(* fix every key literal to the hybrid's secret configuration *)
let pin_true_key cnf h keys =
  List.iter
    (fun (id, key) ->
      let config = List.assoc id (Hybrid.bitstream h) in
      Encode.pin cnf (Array.to_list key)
        (Array.init (Array.length key) (Truth.row config)))
    keys

let test_encode_correct_key_is_consistent () =
  (* pin the true bitstream into the key variables and a random I/O pair:
     the formula must be satisfiable and the outputs must match the
     oracle *)
  let nl = small_circuit 4 in
  let h = protect_n nl 2 4 in
  let keyed = Encode.encode (Hybrid.foundry_view h) in
  let cnf = keyed.Encode.cnf in
  pin_true_key cnf h keyed.Encode.keys;
  let o = Oracle.create h in
  let inputs =
    Array.init (List.length keyed.Encode.inputs) (fun i -> i mod 2 = 0)
  in
  Encode.pin cnf (List.map snd keyed.Encode.inputs) inputs;
  let expected = Oracle.query o inputs in
  match Sttc_logic.Sat.solve cnf with
  | Sttc_logic.Sat.Unsat -> Alcotest.fail "true key must satisfy"
  | Sttc_logic.Sat.Unknown r -> Alcotest.fail ("unexpected Unknown: " ^ r)
  | Sttc_logic.Sat.Sat model ->
      List.iteri
        (fun i (name, l) ->
          Alcotest.(check bool)
            ("output " ^ name)
            expected.(i)
            (Sttc_logic.Sat.model_value model l))
        keyed.Encode.outputs

(* ---------- SAT attack ---------- *)

let test_sat_attack_breaks_independent () =
  let nl = small_circuit 5 in
  let h = protect_n nl 3 5 in
  match Sat_attack.run ~timeout_s:30. h with
  | Sat_attack.Broken b ->
      Alcotest.(check bool) "functionally correct" true
        (Sat_attack.verify_break h b.bitstream);
      Alcotest.(check bool) "used some queries" true (b.queries > 0)
  | Sat_attack.Exhausted e -> Alcotest.fail ("exhausted: " ^ e.reason)

let test_sat_attack_breaks_dependent_small () =
  (* on small circuits even dependent selection falls to the SAT attack
     (with scan access) -- the honest result from the literature *)
  let nl = small_circuit 6 in
  let r = protect ~seed:2 Flow.Dependent nl in
  match Sat_attack.run ~timeout_s:30. r.Flow.hybrid with
  | Sat_attack.Broken b ->
      Alcotest.(check bool) "verified" true
        (Sat_attack.verify_break r.Flow.hybrid b.bitstream)
  | Sat_attack.Exhausted _ ->
      (* also acceptable: resource-limited runs may not converge *)
      ()

let test_sat_attack_respects_limits () =
  let nl = small_circuit 7 in
  let h = protect_n nl 3 7 in
  match Sat_attack.run ~max_iterations:1 ~timeout_s:300. h with
  | Sat_attack.Broken b ->
      Alcotest.(check bool) "at most 1 iteration" true (b.iterations <= 1)
  | Sat_attack.Exhausted e ->
      Alcotest.(check string) "iteration limit" "iteration limit" e.reason

let test_sat_attack_modes_agree () =
  (* the persistent-solver attack must recover exactly the bitstream the
     scratch-per-iteration baseline does, and reach the same verdict *)
  let nl = small_circuit 9 in
  let h = protect_n nl 3 9 in
  match
    ( Sat_attack.run ~timeout_s:30. ~mode:Sat_attack.Scratch h,
      Sat_attack.run ~timeout_s:30. ~mode:Sat_attack.Incremental h )
  with
  | Sat_attack.Broken s, Sat_attack.Broken i ->
      Alcotest.(check int) "same number of keyed LUTs"
        (List.length s.bitstream) (List.length i.bitstream);
      List.iter2
        (fun (id_s, t_s) (id_i, t_i) ->
          Alcotest.(check int) "same LUT" id_s id_i;
          Alcotest.(check string) "same configuration" (Truth.to_string t_s)
            (Truth.to_string t_i))
        s.bitstream i.bitstream
  | Sat_attack.Exhausted s, Sat_attack.Exhausted i ->
      Alcotest.(check string) "same reason" s.reason i.reason
  | _ -> Alcotest.fail "solver modes reached different verdicts"

(* The trajectories of both SAT attacks (the combinational one in both
   solver modes) and of the targeted truth-table attack on the s27
   hybrids, pinned: iterations, oracle queries, solver decisions and
   conflicts, and the md5 of the recovered key.  Any change
   to the attack formulas (variable order, clause order, miter shape)
   moves them. *)
let test_attack_trajectories_pinned () =
  let module Runner = Sttc_experiments.Runner in
  let nl = Runner.build_circuit "s27" in
  let hybrid alg = (protect ~seed:Runner.master_seed alg nl).Flow.hybrid in
  let key_md5 bitstream =
    String.concat ";"
      (List.map
         (fun (id, t) -> Printf.sprintf "%d:%s" id (Truth.to_string t))
         bitstream)
    |> Digest.string |> Digest.to_hex
    |> fun h -> String.sub h 0 8
  in
  let trajectory label = function
    | Sat_attack.Broken b ->
        Printf.sprintf "%d/%d/%d/%d/%s" b.iterations b.queries
          b.stats.Sttc_logic.Sat.decisions b.stats.Sttc_logic.Sat.conflicts
          (key_md5 b.bitstream)
    | Sat_attack.Exhausted e ->
        Alcotest.fail (label ^ ": exhausted " ^ e.reason)
  in
  List.iter2
    (fun alg (comb, scratch, seq) ->
      let h = hybrid alg in
      let name = Flow.algorithm_name alg in
      Alcotest.(check string) (name ^ " run") comb
        (trajectory name (Sat_attack.run ~timeout_s:60. h));
      Alcotest.(check string) (name ^ " run scratch") scratch
        (trajectory name
           (Sat_attack.run ~timeout_s:60. ~mode:Sat_attack.Scratch h));
      Alcotest.(check string) (name ^ " run_sequential") seq
        (trajectory name (Sat_attack.run_sequential ~timeout_s:60. h)))
    Flow.default_algorithms
    [
      ( "12/12/894/321/59ab28bf",
        "14/14/4428/2074/59ab28bf",
        "7/35/2349/912/59ab28bf" );
      ( "21/21/1725/551/628b5797",
        "16/16/5449/2395/628b5797",
        "9/45/5512/2589/628b5797" );
      ( "4/4/73/23/7aa67298",
        "4/4/101/41/7aa67298",
        "5/25/377/113/7aa67298" );
    ];
  let parametric = List.nth Flow.default_algorithms 2 in
  let r =
    Tt_attack.run ~targeted:true ~budget_patterns:400 ~seed:1
      (hybrid parametric)
  in
  Alcotest.(check (triple int int int))
    "parametric targeted tt-attack" (1, 400, 4)
    (r.Tt_attack.fully_resolved, r.Tt_attack.patterns_tried,
     r.Tt_attack.oracle_queries)

(* Property (satellite of the incremental-solver rework): on random
   netlist miters — the exact formula shape the SAT attack feeds the
   solver — [solve ~assumptions] on one persistent solver agrees with a
   throwaway solve of the same CNF with the assumptions as unit
   clauses. *)
let incremental_miter_props =
  let module Cnf = Sttc_logic.Cnf in
  let module Sat = Sttc_logic.Sat in
  let build_miter seed =
    let nl = small_circuit seed in
    let h = protect_n nl 2 seed in
    let fv = Hybrid.foundry_view h in
    let cnf = Cnf.create () in
    let c1 = Encode.encode ~cnf fv in
    let c2 = Encode.encode ~cnf ~share_inputs:c1.Encode.inputs fv in
    let diffs =
      Encode.miter cnf (List.map snd c1.Encode.outputs)
        (List.map snd c2.Encode.outputs)
    in
    let act = Cnf.fresh_var cnf in
    Cnf.add_clause cnf (-act :: diffs);
    let _, key0 = List.hd c1.Encode.keys in
    (cnf, act, key0.(0))
  in
  let satisfies model cnf =
    List.for_all
      (fun clause ->
        Array.exists
          (fun l ->
            if l > 0 then Sat.model_value model l
            else not (Sat.model_value model (-l)))
          clause)
      (List.init (Cnf.nclauses cnf) (Cnf.clause cnf))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"persistent solve = scratch solve on miters"
         ~count:20
         QCheck2.Gen.(int_range 0 1_000_000)
         (fun seed ->
           let cnf, act, k0 = build_miter seed in
           let solver = Sat.Solver.create () in
           Sat.Solver.sync solver cnf;
           List.for_all
             (fun assumptions ->
               let scratch_cnf, _, _ = build_miter seed in
               List.iter
                 (fun l -> Cnf.add_clause scratch_cnf [ l ])
                 assumptions;
               match
                 ( Sat.Solver.solve ~assumptions solver,
                   Sat.solve scratch_cnf )
               with
               | Sat.Unsat, Sat.Unsat -> true
               | Sat.Sat model, Sat.Sat _ ->
                   satisfies model cnf
                   && List.for_all
                        (fun l ->
                          if l > 0 then Sat.model_value model l
                          else not (Sat.model_value model (-l)))
                        assumptions
               | _ -> false)
             [ [ act ]; [ -act ]; [ act; k0 ]; [ -act; -k0 ] ]));
  ]

(* ---------- truth-table attack ---------- *)

let test_tt_attack_resolves_observable_independent () =
  let nl = small_circuit 8 in
  (* a single observable missing gate: no interference from other unknowns,
     so the testing technique must make progress *)
  let h = protect_n nl 1 8 in
  let r = Tt_attack.run ~budget_patterns:6000 h in
  Alcotest.(check int) "1 lut" 1 r.Tt_attack.lut_count;
  Alcotest.(check bool) "resolved something" true (r.Tt_attack.resolution > 0.);
  (* every resolved row must match the secret bitstream *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "progress consistent" true
        (p.Tt_attack.resolved_rows <= p.Tt_attack.total_rows))
    r.Tt_attack.per_lut

let test_tt_attack_targeted_improves () =
  (* the SAT-guided phase must not lose ground, and on a single LUT it
     should settle every row (resolve it or prove it unreachable) *)
  let nl = small_circuit 20 in
  let h = protect_n nl 1 20 in
  let random_only = Tt_attack.run ~budget_patterns:50 h in
  let targeted = Tt_attack.run ~budget_patterns:50 ~targeted:true h in
  Alcotest.(check bool) "no worse" true
    (targeted.Tt_attack.resolution >= random_only.Tt_attack.resolution);
  Alcotest.(check (float 1e-9)) "single LUT fully settled" 1.0
    targeted.Tt_attack.functional_resolution;
  (* settled rows agree with the secret config on the reachable part *)
  let _, secret = List.hd (Hybrid.bitstream h) in
  ignore secret;
  List.iter
    (fun p ->
      Alcotest.(check int) "rows partition" p.Tt_attack.total_rows
        (p.Tt_attack.total_rows - p.Tt_attack.resolved_rows
         - p.Tt_attack.unreachable_rows
        + p.Tt_attack.resolved_rows + p.Tt_attack.unreachable_rows))
    targeted.Tt_attack.per_lut

let test_tt_attack_functional_resolution_bounds () =
  let nl = small_circuit 21 in
  let h = protect_n nl 3 21 in
  let r = Tt_attack.run ~budget_patterns:300 ~targeted:true h in
  Alcotest.(check bool) "functional >= raw" true
    (r.Tt_attack.functional_resolution >= r.Tt_attack.resolution);
  Alcotest.(check bool) "within [0,1]" true
    (r.Tt_attack.functional_resolution >= 0.
    && r.Tt_attack.functional_resolution <= 1.)

let test_tt_attack_degrades_on_dependent () =
  let nl = small_circuit 9 in
  let indep = protect ~seed:3 (Flow.Independent { count = 4 }) nl in
  let dep = protect ~seed:3 Flow.Dependent nl in
  let r_indep = Tt_attack.run ~budget_patterns:3000 indep.Flow.hybrid in
  let r_dep = Tt_attack.run ~budget_patterns:3000 dep.Flow.hybrid in
  (* the paper's asymmetry: dependent selection leaves a (weakly) smaller
     resolved fraction *)
  Alcotest.(check bool)
    (Printf.sprintf "dependent harder (%.2f vs %.2f)" r_dep.Tt_attack.resolution
       r_indep.Tt_attack.resolution)
    true
    (r_dep.Tt_attack.resolution <= r_indep.Tt_attack.resolution +. 0.15)

(* Pinned results on the s641 independent hybrid at the paper's master
   seed, recorded from the scalar one-pattern-at-a-time implementation:
   batching patterns 64 to a word must not change any field (the RNG
   stream, the oracle queries and their order), including the one-pattern
   tail of a 65-pattern budget and the targeted phase. *)
let test_tt_attack_pinned () =
  let h =
    (Flow.run ~seed:Sttc_experiments.Runner.master_seed ~policy:Flow.Strict
       (Flow.Independent { count = 5 })
       (Sttc_experiments.Runner.build_circuit "s641"))
      .Flow.accepted.Flow.hybrid
  in
  let fingerprint (r : Tt_attack.result) =
    Printf.sprintf "%d/%d res=%.17g fres=%.17g pat=%d q=%d %s"
      r.Tt_attack.fully_resolved r.lut_count r.resolution
      r.functional_resolution r.patterns_tried r.oracle_queries
      (String.concat " "
         (List.map
            (fun (p : Tt_attack.lut_progress) ->
              Printf.sprintf "%d:%d/%d,%d" p.lut p.resolved_rows
                p.total_rows p.unreachable_rows)
            r.per_lut))
  in
  List.iter
    (fun ((budget_patterns, targeted), expected) ->
      Alcotest.(check string)
        (Printf.sprintf "budget %d targeted %b" budget_patterns targeted)
        expected
        (fingerprint (Tt_attack.run ~budget_patterns ~targeted h)))
    [
      ((64, false), "1/5 res=0.45833333333333331 fres=0.45833333333333331 pat=64 q=11 66:8/8,0 86:0/4,0 317:0/4,0 333:0/4,0 334:3/4,0");
      ((64, true), "2/5 res=0.5 fres=0.58333333333333337 pat=64 q=12 66:8/8,0 86:0/4,0 317:0/4,2 333:0/4,0 334:4/4,0");
      ((65, false), "1/5 res=0.45833333333333331 fres=0.45833333333333331 pat=65 q=11 66:8/8,0 86:0/4,0 317:0/4,0 333:0/4,0 334:3/4,0");
      ((65, true), "2/5 res=0.5 fres=0.58333333333333337 pat=65 q=12 66:8/8,0 86:0/4,0 317:0/4,2 333:0/4,0 334:4/4,0");
      ((300, false), "2/5 res=0.5 fres=0.5 pat=300 q=12 66:8/8,0 86:0/4,0 317:0/4,0 333:0/4,0 334:4/4,0");
      ((300, true), "2/5 res=0.5 fres=0.58333333333333337 pat=300 q=12 66:8/8,0 86:0/4,0 317:0/4,2 333:0/4,0 334:4/4,0");
    ]

(* ---------- brute force ---------- *)

let test_brute_force_tiny () =
  let nl = small_circuit 10 in
  let h = protect_n nl 1 10 in
  (* one LUT of arity <= 4: at most 16 bits, enumerable *)
  match Brute_force.run ~max_bits:16 h with
  | Brute_force.Broken b ->
      Alcotest.(check bool) "tested at least one" true
        (Sttc_util.Lognum.log10 b.candidates_tested > neg_infinity)
  | Brute_force.Infeasible _ -> Alcotest.fail "1 LUT must be enumerable"

let test_brute_force_projects_large () =
  let nl = small_circuit 11 in
  let h = protect_n nl 8 11 in
  match Brute_force.run ~max_bits:10 h with
  | Brute_force.Infeasible i ->
      Alcotest.(check bool) "space large" true
        (Sttc_util.Lognum.log10 i.search_space > 6.);
      Alcotest.(check bool) "rate measured" true (i.tested_rate_per_s > 0.)
  | Brute_force.Broken _ -> Alcotest.fail "must report infeasible"

(* Brute force on the s27 hybrids at the paper's master seed, pinned: the
   space an infeasible search reports, the candidates a feasible one
   tests, and [sttc baseline]'s bytes with its measured seconds column
   blanked.  The [stt] rows were recorded before the key count moved into
   [Backend] and must not move a byte.  Under [tvd] (same hybrids:
   selection does not depend on the backend) brute force searches the
   TVD family and recovers the independent and dependent keys. *)
let test_brute_force_pinned () =
  let module Runner = Sttc_experiments.Runner in
  let module Backend = Sttc_backend.Backend in
  let nl = Runner.build_circuit "s27" in
  let hybrid alg = (protect ~seed:Runner.master_seed alg nl).Flow.hybrid in
  let outcome backend alg =
    let h = hybrid alg in
    let candidates =
      Backend.sat_candidates backend.Backend.candidates (Hybrid.foundry_view h)
        (Hybrid.lut_ids h)
    in
    match Brute_force.run ~max_bits:16 ~candidates h with
    | Brute_force.Infeasible i ->
        "space " ^ Sttc_util.Lognum.to_string i.search_space
    | Brute_force.Broken b ->
        Alcotest.(check bool) "recovered key verified" true
          (Sat_attack.verify_break h b.bitstream);
        "tested " ^ Sttc_util.Lognum.to_string b.candidates_tested
  in
  List.iter
    (fun (backend, expected) ->
      List.iter2
        (fun alg expected ->
          Alcotest.(check string)
            (Backend.name backend ^ " " ^ Flow.algorithm_name alg)
            expected (outcome backend alg))
        Flow.default_algorithms expected)
    [
      (Backend.stt, [ "space 2.62e+05"; "space 1.68E+7"; "tested 2" ]);
      ( Backend.find_exn "tvd",
        [ "tested 1.39e+03"; "tested 1.95e+04"; "tested 4" ] );
    ];
  let blank_seconds line =
    (* the last cell of the SAT-attack rows is a wall-clock reading *)
    if
      String.starts_with ~prefix:"| camouflaging" line
      || String.starts_with ~prefix:"| STT LUTs" line
    then
      let cut = String.rindex_from line (String.length line - 2) '|' in
      String.sub line 0 (cut + 1)
      ^ String.make (String.length line - cut - 2) ' '
      ^ "|"
    else line
  in
  let text =
    String.split_on_char '\n' (Runner.baselines ())
    |> List.map blank_seconds |> String.concat "\n"
  in
  Alcotest.(check string) "sttc baseline md5"
    "b9c21d1b241a620707528d85c862eba0"
    (Digest.to_hex (Digest.string text))

(* ---------- guess attack ---------- *)

let test_guess_attack_improves () =
  let nl = small_circuit 12 in
  let h = protect_n nl 3 12 in
  let r = Guess_attack.run ~rounds:6 h in
  Alcotest.(check bool) "agreement in (0.4, 1.0]" true
    (r.Guess_attack.agreement > 0.4 && r.Guess_attack.agreement <= 1.0);
  Alcotest.(check bool) "queries counted" true (r.Guess_attack.oracle_queries > 0);
  if r.Guess_attack.recovered then
    Alcotest.(check bool) "recovery claim verified" true
      (Sat_attack.verify_break h r.Guess_attack.bitstream)

(* ---------- sequential (scan-disabled) attack ---------- *)

let test_oracle_query_sequence () =
  let nl = small_circuit 14 in
  let h = protect_n nl 2 14 in
  let o = Oracle.create h in
  let n_pi = List.length (Netlist.pis nl) in
  let seq = [ Array.make n_pi false; Array.make n_pi true ] in
  let outs = Oracle.query_sequence o seq in
  Alcotest.(check int) "one output vector per cycle" 2 (List.length outs);
  Alcotest.(check int) "queries counted" 2 (Oracle.queries o);
  (* must agree with simulating the original from reset *)
  let sim = Sttc_sim.Simulator.create nl in
  Sttc_sim.Simulator.reset sim;
  let expected =
    List.map
      (fun pis ->
        Sttc_sim.Simulator.step sim (Array.map (fun b -> if b then -1L else 0L) pis))
      seq
  in
  List.iter2
    (fun got exp ->
      Array.iteri
        (fun i g ->
          Alcotest.(check bool) "po" (Int64.logand exp.(i) 1L = 1L) g)
        got)
    outs expected

let test_encode_unrolled_structure () =
  let nl = small_circuit 15 in
  let h = protect_n nl 2 15 in
  let u = Encode.encode_unrolled ~frames:3 (Hybrid.foundry_view h) in
  Alcotest.(check int) "3 pi frames" 3 (Array.length u.Encode.frame_pis);
  Alcotest.(check int) "3 po frames" 3 (Array.length u.Encode.frame_pos);
  let n_pi = List.length (Netlist.pis nl) in
  let n_po = Array.length (Netlist.outputs nl) in
  Array.iter
    (fun pis -> Alcotest.(check int) "pi width" n_pi (List.length pis))
    u.Encode.frame_pis;
  Array.iter
    (fun pos -> Alcotest.(check int) "po width" n_po (List.length pos))
    u.Encode.frame_pos;
  Alcotest.(check int) "2 shared keys" 2 (List.length u.Encode.u_keys)

let test_encode_unrolled_true_key_matches_oracle () =
  (* pin the secret key and a known PI sequence: the unrolled formula's
     per-frame PO literals must take the oracle's values *)
  let nl = small_circuit 16 in
  let h = protect_n nl 2 16 in
  let frames = 3 in
  let u = Encode.encode_unrolled ~frames (Hybrid.foundry_view h) in
  let cnf = u.Encode.u_cnf in
  pin_true_key cnf h u.Encode.u_keys;
  let n_pi = List.length (Netlist.pis nl) in
  let rng = Rng.make 5 in
  let pi_seq =
    List.init frames (fun _ -> Array.init n_pi (fun _ -> Rng.bool rng))
  in
  List.iteri
    (fun frame pis -> Encode.pin cnf (List.map snd u.Encode.frame_pis.(frame)) pis)
    pi_seq;
  let o = Oracle.create h in
  let po_seq = Oracle.query_sequence o pi_seq in
  (match Sttc_logic.Sat.solve cnf with
  | Sttc_logic.Sat.Unsat -> Alcotest.fail "true key must satisfy unrolling"
  | Sttc_logic.Sat.Unknown r -> Alcotest.fail ("unexpected Unknown: " ^ r)
  | Sttc_logic.Sat.Sat model ->
      List.iteri
        (fun frame pos ->
          List.iteri
            (fun i (_, l) ->
              Alcotest.(check bool)
                (Printf.sprintf "frame %d po %d" frame i)
                pos.(i)
                (Sttc_logic.Sat.model_value model l))
            u.Encode.frame_pos.(frame))
        po_seq)

let test_sequential_attack_small () =
  (* on a small circuit the sequential attack either recovers a correct
     key or stops at a principled limit -- never a wrong "Broken" *)
  let nl = small_circuit 17 in
  let h = protect_n nl 2 17 in
  match Sat_attack.run_sequential ~frames:4 ~timeout_s:30. h with
  | Sat_attack.Broken b ->
      Alcotest.(check bool) "verified" true
        (Sat_attack.verify_break h b.bitstream)
  | Sat_attack.Exhausted e ->
      Alcotest.(check bool) "principled reason" true
        (List.mem e.reason
           [ "timeout"; "iteration limit"; "conflict budget";
             "sequence-length limit" ])

(* ---------- wall-clock budgets ---------- *)

module Runner = Sttc_experiments.Runner
module Budget = Sttc_util.Budget

let now = Sttc_util.Pool.now_s

(* s641 under independent selection at the master seed: the sequential
   attack needs tens of seconds, most of it in one final UNSAT solve *)
let hard_hybrid =
  lazy
    (protect ~seed:Runner.master_seed (Flow.Independent { count = 5 })
       (Runner.build_circuit "s641"))
      .Flow.hybrid

let within ~budget ~slack what f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  if dt > budget +. slack then
    Alcotest.failf "%s returned after %.2fs (budget %.2fs)" what dt budget;
  r

let test_sequential_budget_regression () =
  match
    within ~budget:2. ~slack:1. "run_sequential" (fun () ->
        Sat_attack.run_sequential ~timeout_s:2. (Lazy.force hard_hybrid))
  with
  | Sat_attack.Exhausted { reason; _ } ->
      Alcotest.(check string) "reason" "timeout" reason
  | Sat_attack.Broken _ -> Alcotest.fail "must not finish inside 2 s"

(* Every budgeted entry point returns within budget + slack on a hard
   instance, whatever the job count. *)
let test_budget_table () =
  let budget = 0.3 and slack = 1. in
  let h = Lazy.force hard_hybrid in
  let exhausted what = function
    | Sat_attack.Exhausted { reason = "timeout"; _ } -> ()
    | _ -> Alcotest.failf "%s must time out" what
  in
  exhausted "run"
    (within ~budget ~slack "run" (fun () ->
         (* a 1-cycle-deep miter is easy; the scratch engine rebuilds the
            solver per call, which is what makes it slow enough *)
         Sat_attack.run ~timeout_s:budget ~mode:Sat_attack.Scratch h));
  exhausted "run_sequential"
    (within ~budget ~slack "run_sequential" (fun () ->
         Sat_attack.run_sequential ~timeout_s:budget h));
  let timed_out ?(budget = budget) what f =
    match within ~budget ~slack what (fun () -> Budget.run ~seconds:budget f) with
    | Error `Timeout -> ()
    | Ok _ -> Alcotest.failf "%s must exhaust the enclosing budget" what
  in
  List.iter
    (fun jobs ->
      timed_out (Printf.sprintf "Harness.attack jobs %d" jobs) (fun () ->
          Harness.attack
            ~config:Harness.Config.(default |> with_jobs jobs)
            ~circuit:"s641" ~algorithm:"independent" h))
    [ 1; 4 ];
  (* the whole twelve-twin table takes 0.25-0.6 s on two cores: too
     close to 0.3 s to be sure to exhaust it *)
  List.iter
    (fun jobs ->
      timed_out ~budget:0.05 (Printf.sprintf "Runner.rows -j%d" jobs) (fun () ->
          Runner.rows Runner.Config.(default |> with_jobs jobs)))
    [ 1; 2 ]

(* The per-call conflict cap is the attacks' budget beside the wall
   clock.  Capped at one conflict per solver call, both attacks on the
   s641 independent hybrid stop at the first call that backtracks, as a
   conflict budget exhausted, never as a break or a proven UNSAT. *)
let test_conflict_cap () =
  let h = Lazy.force hard_hybrid in
  let capped what = function
    | Sat_attack.Exhausted { reason; _ } ->
        Alcotest.(check string) (what ^ " reason") "conflict budget" reason
    | Sat_attack.Broken _ -> Alcotest.failf "%s broke s641 under the cap" what
  in
  capped "run" (Sat_attack.run ~max_conflicts_per_call:1 h);
  capped "run_sequential" (Sat_attack.run_sequential ~max_conflicts_per_call:1 h)

(* ---------- DPA ---------- *)

let test_dpa_deterministic_and_sane () =
  let nl = small_circuit 18 in
  let lib = Sttc_tech.Library.cmos90 in
  let target = Netlist.name nl (List.hd (Netlist.gates nl)) in
  let r1 = Dpa.measure ~cycles:16 ~batches:4 lib nl ~target in
  let r2 = Dpa.measure ~cycles:16 ~batches:4 lib nl ~target in
  Alcotest.(check (float 1e-12)) "deterministic" r1.Dpa.dom_fj r2.Dpa.dom_fj;
  Alcotest.(check int) "traces" (64 * 4) r1.Dpa.traces;
  Alcotest.(check bool) "mean positive" true (r1.Dpa.mean_energy_fj > 0.);
  Alcotest.(check bool) "dom bounded by mean scale" true
    (r1.Dpa.dom_fj <= r1.Dpa.mean_energy_fj *. 10.);
  Alcotest.check_raises "unknown target"
    (Invalid_argument "Dpa.measure: unknown target signal ghost") (fun () ->
      ignore (Dpa.measure lib nl ~target:"ghost"))

let test_dpa_hybrid_leaks_less_on_target () =
  (* replace the target gate with a LUT: since the LUT's power is data
     independent, the energy correlated with the hidden signal drops *)
  let nl = small_circuit 19 in
  let lib = Sttc_tech.Library.cmos90 in
  (* pick a target with decent fanout so it carries measurable energy *)
  let target_id =
    List.fold_left
      (fun best id ->
        if
          Netlist.fanout_degree nl id > Netlist.fanout_degree nl best
        then id
        else best)
      (List.hd (Netlist.gates nl))
      (Netlist.gates nl)
  in
  let target = Netlist.name nl target_id in
  let h = Hybrid.make nl [ target_id ] in
  let reduction =
    Dpa.leakage_reduction ~cycles:24 ~batches:8 lib ~original:nl
      ~hybrid:(Sttc_core.Hybrid.programmed h) ~target
  in
  Alcotest.(check bool)
    (Printf.sprintf "leakage not amplified (%.2fx)" reduction)
    true (reduction >= 0.8)

let test_scan_oracle_matches_direct () =
  (* the pin-level scan protocol gives bit-exact combinational access at
     2*FFs + 1 clocks per query *)
  let nl = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  let r = protect ~seed:1 (Flow.Independent { count = 3 }) nl in
  let direct = Oracle.create r.Flow.hybrid in
  let via_scan = Sttc_attack.Scan_oracle.create r.Flow.hybrid in
  Alcotest.(check int) "cycles per query" 7
    (Sttc_attack.Scan_oracle.cycles_per_query via_scan);
  let n_in = List.length (Oracle.input_names direct) in
  let rng = Rng.make 9 in
  for _ = 1 to 64 do
    let inputs = Array.init n_in (fun _ -> Rng.bool rng) in
    Alcotest.(check bool) "same answer" true
      (Oracle.query direct inputs
      = Sttc_attack.Scan_oracle.query via_scan inputs)
  done;
  Alcotest.(check int) "clock accounting" (64 * 7)
    (Sttc_attack.Scan_oracle.clock_cycles via_scan);
  Alcotest.(check int) "query count" 64
    (Sttc_attack.Scan_oracle.queries via_scan)

(* ---------- harness ---------- *)

let test_harness_campaign () =
  let nl = small_circuit 13 in
  let h = protect_n nl 2 13 in
  let config =
    Harness.Config.(
      {
        (default |> with_sat_timeout_s 20. |> with_tt_budget 1500
       |> with_guess_rounds 3)
        with
        brute_max_bits = 10;
      })
  in
  let c = Harness.attack ~config ~circuit:"t" ~algorithm:"independent" h in
  Alcotest.(check int) "six attacks" 6 (List.length c.Harness.entries);
  Alcotest.(check int) "lut count" 2 c.Harness.lut_count;
  let table = Harness.to_table [ c ] in
  Alcotest.(check bool) "table rendered" true (String.length table > 0);
  (* the sat entry should report recovery on so small a target *)
  let sat_entry = List.find (fun e -> e.Harness.attack = "sat") c.Harness.entries in
  (match sat_entry.Harness.verdict with
  | Harness.Recovered -> ()
  | _ -> Alcotest.fail "sat should recover 2 LUTs on 60 gates")

(* The campaign fanned out over a pool must reach the same verdicts as
   a serial run: every attack is seeded up front, so only the (wall
   clock) seconds column may differ. *)
let test_harness_parallel_matches_serial () =
  let nl = small_circuit 13 in
  let h = protect_n nl 2 13 in
  let campaign jobs =
    let config =
      Harness.Config.(
        {
          (default |> with_sat_timeout_s 20. |> with_tt_budget 1500
         |> with_guess_rounds 3 |> with_jobs jobs)
          with
          brute_max_bits = 10;
        })
    in
    Harness.attack ~config ~circuit:"t" ~algorithm:"independent" h
  in
  let serial = campaign 1 and parallel = campaign 3 in
  let signature c =
    List.map
      (fun e ->
        (* brute force reports a measured candidates/s rate in its
           detail, which is wall clock, not seed-derived — skip it *)
        let detail =
          if e.Harness.attack = "brute-force" then "-" else e.Harness.detail
        in
        Printf.sprintf "%s:%s:%d:%s" e.Harness.attack
          (match e.Harness.verdict with
          | Harness.Recovered -> "recovered"
          | Harness.Partial f -> Printf.sprintf "partial %h" f
          | Harness.Resisted -> "resisted")
          e.Harness.oracle_queries detail)
      c.Harness.entries
  in
  Alcotest.(check (list string))
    "same attacks, verdicts, queries and details in the same order"
    (signature serial) (signature parallel)

(* With a zero wall-clock budget no attack may even start: every entry
   must classify as Resisted, and do so instantly. *)
let test_harness_zero_budget () =
  let nl = small_circuit 14 in
  let h = protect_n nl 2 14 in
  let c =
    Harness.attack
      ~config:Harness.Config.(default |> with_sat_timeout_s 0.)
      ~circuit:"t" ~algorithm:"independent" h
  in
  Alcotest.(check int) "six attacks" 6 (List.length c.Harness.entries);
  List.iter
    (fun e ->
      (match e.Harness.verdict with
      | Harness.Resisted -> ()
      | _ ->
          Alcotest.fail
            (e.Harness.attack ^ " must be Resisted at zero budget"));
      Alcotest.(check string)
        (e.Harness.attack ^ " detail")
        "zero budget" e.Harness.detail;
      Alcotest.(check int)
        (e.Harness.attack ^ " queries")
        0 e.Harness.oracle_queries)
    c.Harness.entries

(* The sequential SAT attack gets its own budget; zeroing it must not
   silence the other attacks. *)
let test_harness_seq_budget_independent () =
  let nl = small_circuit 15 in
  let h = protect_n nl 2 15 in
  let config =
    Harness.Config.(
      {
        (default |> with_sat_timeout_s 20. |> with_tt_budget 400
       |> with_guess_rounds 1)
        with
        seq_timeout_s = Some 0.;
        brute_max_bits = 10;
      })
  in
  let c = Harness.attack ~config ~circuit:"t" ~algorithm:"independent" h in
  let seq = List.find (fun e -> e.Harness.attack = "sat-seq") c.Harness.entries in
  (match seq.Harness.verdict with
  | Harness.Resisted -> ()
  | _ -> Alcotest.fail "sat-seq must be Resisted at zero budget");
  Alcotest.(check string) "seq detail" "zero budget" seq.Harness.detail;
  let sat = List.find (fun e -> e.Harness.attack = "sat") c.Harness.entries in
  if sat.Harness.detail = "zero budget" then
    Alcotest.fail "combinational sat must still run"

(* The Config JSON codec: full round-trip, the empty object as the
   default config, and typed rejection of a bad solver mode. *)
let test_harness_config_json_roundtrip () =
  let module C = Harness.Config in
  let config =
    C.(
      {
        (default |> with_sat_timeout_s 12.5 |> with_tt_budget 123
       |> with_guess_rounds 2 |> with_jobs 3
       |> with_solver_mode Sttc_attack.Sat_attack.Scratch)
        with
        seed = 42;
        seq_timeout_s = Some 3.;
        brute_max_bits = 8;
        seq_frames = 6;
      })
  in
  (match C.of_json (C.to_json config) with
  | Ok c -> Alcotest.(check bool) "round-trip" true (c = config)
  | Error e -> Alcotest.fail e);
  (match C.of_json (Sttc_obs.Json.Obj []) with
  | Ok c -> Alcotest.(check bool) "empty object = default" true (c = C.default)
  | Error e -> Alcotest.fail e);
  match
    C.of_json
      (Sttc_obs.Json.Obj [ ("solver_mode", Sttc_obs.Json.String "magic") ])
  with
  | Ok _ -> Alcotest.fail "unknown solver_mode must be rejected"
  | Error _ -> ()

(* The stt backend is the harness default: passing it explicitly must
   change nothing about the campaign. *)
let test_harness_backend_default () =
  let nl = small_circuit 16 in
  let h = protect_n nl 2 16 in
  let config = Harness.Config.(default |> with_sat_timeout_s 0.) in
  let implicit =
    Harness.attack ~config ~circuit:"t" ~algorithm:"independent" h
  in
  let explicit =
    Harness.attack ~backend:Sttc_backend.Backend.stt ~config ~circuit:"t"
      ~algorithm:"independent" h
  in
  Alcotest.(check bool) "explicit stt equals default" true (implicit = explicit)

(* Recycling one solver arena across attacks (the serve daemon's
   per-worker discipline) must recover the exact bitstream a fresh
   solver does. *)
let test_solver_reuse_identical () =
  let nl = small_circuit 17 in
  let h = protect_n nl 2 17 in
  let nl2 = small_circuit 18 in
  let h2 = protect_n nl2 2 18 in
  let bitstream = function
    | Sttc_attack.Sat_attack.Broken b -> b.bitstream
    | Sttc_attack.Sat_attack.Exhausted _ ->
        Alcotest.fail "sat attack must break 2 LUTs on a small circuit"
  in
  let fresh = bitstream (Sttc_attack.Sat_attack.run h) in
  let solver = Sttc_logic.Sat.Solver.create () in
  (* dirty the arena on an unrelated formula first *)
  ignore (bitstream (Sttc_attack.Sat_attack.run ~solver h2));
  let recycled = bitstream (Sttc_attack.Sat_attack.run ~solver h) in
  Alcotest.(check bool) "recycled arena = fresh solver" true (fresh = recycled)

let () =
  Alcotest.run "sttc_attack"
    [
      ( "oracle",
        [
          Alcotest.test_case "interface" `Quick test_oracle_interface;
          Alcotest.test_case "matches programmed netlist" `Quick
            test_oracle_matches_programmed_netlist;
        ] );
      ( "encode",
        [
          Alcotest.test_case "key structure" `Quick test_encode_key_structure;
          Alcotest.test_case "correct key consistent" `Quick
            test_encode_correct_key_is_consistent;
        ] );
      ( "sat_attack",
        [
          Alcotest.test_case "breaks independent" `Slow
            test_sat_attack_breaks_independent;
          Alcotest.test_case "breaks dependent (small)" `Slow
            test_sat_attack_breaks_dependent_small;
          Alcotest.test_case "respects limits" `Quick test_sat_attack_respects_limits;
          Alcotest.test_case "solver modes agree" `Quick
            test_sat_attack_modes_agree;
          Alcotest.test_case "pinned s27 trajectories" `Quick
            test_attack_trajectories_pinned;
        ]
        @ incremental_miter_props );
      ( "tt_attack",
        [
          Alcotest.test_case "resolves independent" `Slow
            test_tt_attack_resolves_observable_independent;
          Alcotest.test_case "degrades on dependent" `Slow
            test_tt_attack_degrades_on_dependent;
          Alcotest.test_case "targeted improves" `Slow
            test_tt_attack_targeted_improves;
          Alcotest.test_case "functional resolution bounds" `Slow
            test_tt_attack_functional_resolution_bounds;
          Alcotest.test_case "pinned s641" `Slow test_tt_attack_pinned;
        ] );
      ( "brute_force",
        [
          Alcotest.test_case "tiny" `Slow test_brute_force_tiny;
          Alcotest.test_case "projects large" `Quick test_brute_force_projects_large;
          Alcotest.test_case "pinned s27" `Quick test_brute_force_pinned;
        ] );
      ( "guess_attack",
        [ Alcotest.test_case "improves" `Slow test_guess_attack_improves ] );
      ( "sequential",
        [
          Alcotest.test_case "oracle sequence" `Quick test_oracle_query_sequence;
          Alcotest.test_case "unrolled structure" `Quick
            test_encode_unrolled_structure;
          Alcotest.test_case "unrolled true key" `Quick
            test_encode_unrolled_true_key_matches_oracle;
          Alcotest.test_case "attack small" `Slow test_sequential_attack_small;
        ] );
      ( "budget",
        [
          Alcotest.test_case "s641 sequential stops at 2 s" `Slow
            test_sequential_budget_regression;
          Alcotest.test_case "entry points return within budget" `Slow
            test_budget_table;
          Alcotest.test_case "s641 independent capped at 1 conflict per call"
            `Quick test_conflict_cap;
        ] );
      ( "scan_oracle",
        [
          Alcotest.test_case "matches direct access" `Quick
            test_scan_oracle_matches_direct;
        ] );
      ( "dpa",
        [
          Alcotest.test_case "deterministic/sane" `Quick
            test_dpa_deterministic_and_sane;
          Alcotest.test_case "hybrid leaks less" `Slow
            test_dpa_hybrid_leaks_less_on_target;
        ] );
      ( "harness",
        [
          Alcotest.test_case "campaign" `Slow test_harness_campaign;
          Alcotest.test_case "parallel matches serial" `Slow
            test_harness_parallel_matches_serial;
          Alcotest.test_case "zero budget resists" `Quick
            test_harness_zero_budget;
          Alcotest.test_case "seq budget independent" `Slow
            test_harness_seq_budget_independent;
          Alcotest.test_case "config json roundtrip" `Quick
            test_harness_config_json_roundtrip;
          Alcotest.test_case "backend default" `Quick
            test_harness_backend_default;
          Alcotest.test_case "solver reuse identical" `Slow
            test_solver_reuse_identical;
        ] );
    ]
