(* Tests for Sttc_sim: bit-parallel two- and three-valued simulation of
   hybrids, and the two equivalence-checking engines. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Transform = Sttc_netlist.Transform
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Ternary = Sttc_logic.Ternary
module Simulator = Sttc_sim.Simulator
module Equiv = Sttc_sim.Equiv

let full = -1L

(* adder-ish: s = a XOR b, c = a AND b *)
let half_adder () =
  let b = Netlist.Builder.create ~design_name:"ha" () in
  let x = Netlist.Builder.add_pi b "x" in
  let y = Netlist.Builder.add_pi b "y" in
  let s = Netlist.Builder.add_gate b "s" (Gate_fn.Xor 2) [| x; y |] in
  let c = Netlist.Builder.add_gate b "c" (Gate_fn.And 2) [| x; y |] in
  Netlist.Builder.add_output b "s" s;
  Netlist.Builder.add_output b "c" c;
  Netlist.Builder.finalize b

(* 2-bit counter: ff0 toggles, ff1 toggles when ff0 is 1 *)
let counter () =
  let b = Netlist.Builder.create ~design_name:"cnt" () in
  let en = Netlist.Builder.add_pi b "en" in
  let ff0 = Netlist.Builder.add_dff_deferred b "ff0" in
  let ff1 = Netlist.Builder.add_dff_deferred b "ff1" in
  let t0 = Netlist.Builder.add_gate b "t0" (Gate_fn.Xor 2) [| ff0; en |] in
  let carry = Netlist.Builder.add_gate b "carry" (Gate_fn.And 2) [| ff0; en |] in
  let t1 = Netlist.Builder.add_gate b "t1" (Gate_fn.Xor 2) [| ff1; carry |] in
  Netlist.Builder.set_dff_input b ff0 t0;
  Netlist.Builder.set_dff_input b ff1 t1;
  Netlist.Builder.add_output b "q0" ff0;
  Netlist.Builder.add_output b "q1" ff1;
  Netlist.Builder.finalize b

(* ---------- Simulator ---------- *)

let test_sim_half_adder () =
  let nl = half_adder () in
  let sim = Simulator.create nl in
  (* lanes: x = 0101..., y = 0011... encode all four combinations *)
  let x = 0b0101L and y = 0b0011L in
  let outs = Simulator.eval_comb sim [| x; y |] in
  Alcotest.(check int64) "sum = xor" 0b0110L (Int64.logand outs.(0) 0xFL);
  Alcotest.(check int64) "carry = and" 0b0001L (Int64.logand outs.(1) 0xFL)

let test_sim_counter_sequence () =
  let nl = counter () in
  let sim = Simulator.create nl in
  Simulator.reset sim;
  (* enable always on (all lanes); watch lane 0 count 00 01 10 11 00 *)
  let expect = [ (0, 0); (1, 0); (0, 1); (1, 1); (0, 0) ] in
  List.iter
    (fun (q0, q1) ->
      let outs = Simulator.step sim [| full |] in
      Alcotest.(check int) "q0" q0 (Int64.to_int (Int64.logand outs.(0) 1L));
      Alcotest.(check int) "q1" q1 (Int64.to_int (Int64.logand outs.(1) 1L)))
    expect

let test_sim_reset_and_state () =
  let nl = counter () in
  let sim = Simulator.create nl in
  Simulator.reset sim;
  ignore (Simulator.step sim [| full |]);
  Alcotest.(check bool) "state changed" true (Simulator.state sim <> [| 0L; 0L |]);
  Simulator.reset sim;
  Alcotest.(check bool) "reset clears" true (Simulator.state sim = [| 0L; 0L |]);
  Simulator.set_state sim [| full; 0L |];
  let st = Simulator.state sim in
  Alcotest.(check int64) "set state" full st.(0)

let test_sim_lut_config () =
  let nl = half_adder () in
  let s = Netlist.find_exn nl "s" in
  let foundry = Transform.replace_many ~keep_function:false nl [ s ] in
  (* unprogrammed LUT refuses to simulate *)
  Alcotest.(check bool) "unprogrammed rejected" true
    (try
       ignore (Simulator.create foundry);
       false
     with Invalid_argument _ -> true);
  (* a LUT that keeps the gate's function simulates as the gate *)
  let sim =
    Simulator.create (Transform.replace_many ~keep_function:true nl [ s ])
  in
  let outs = Simulator.eval_comb sim [| 0b0101L; 0b0011L |] in
  Alcotest.(check int64) "xor restored" 0b0110L (Int64.logand outs.(0) 0xFL)

let test_sim_lut_lanes () =
  (* a lone LUT evaluated on all four input rows at once *)
  let lut table =
    let b = Netlist.Builder.create ~design_name:"lut" () in
    let ins =
      Array.init (Truth.arity table) (fun k ->
          Netlist.Builder.add_pi b (Printf.sprintf "i%d" k))
    in
    let y = Netlist.Builder.add_lut b "y" ~config:table ins in
    Netlist.Builder.add_output b "y" y;
    Simulator.create (Netlist.Builder.finalize b)
  in
  let xor2 = Truth.of_string "0110" in
  Alcotest.(check int64) "lanes" 0b0110L
    (Int64.logand (Simulator.eval_comb (lut xor2) [| 0b0101L; 0b0011L |]).(0) 0xFL);
  let const1 = Truth.const_true ~arity:1 in
  Alcotest.(check int64) "const" (-1L)
    (Simulator.eval_comb (lut const1) [| 0b01L |]).(0)

let test_sim_matches_gate_semantics () =
  (* random circuits: bit-parallel sim vs naive per-gate evaluation *)
  for seed = 0 to 4 do
    let nl =
      Generator.generate ~seed
        {
          Generator.design_name = Printf.sprintf "comb%d" seed;
          n_pi = 5;
          n_po = 4;
          n_ff = 0;
          n_gates = 30;
          levels = 7;
        }
    in
    let sim = Simulator.create nl in
    let pis = Array.of_list (Netlist.pis nl) in
    let rng = Sttc_util.Rng.make seed in
    let lanes = Array.map (fun _ -> Sttc_util.Rng.int64 rng) pis in
    let outs = Simulator.eval_comb sim lanes in
    (* naive single-bit reference on lane 17 *)
    let lane = 17 in
    let bit v = Int64.logand (Int64.shift_right_logical v lane) 1L = 1L in
    let values = Hashtbl.create 64 in
    Array.iteri (fun i pi -> Hashtbl.add values pi (bit lanes.(i))) pis;
    Array.iter
      (fun id ->
        let node = Netlist.node nl id in
        match node.Netlist.kind with
        | Netlist.Gate fn ->
            let ins =
              Array.map (fun s -> Hashtbl.find values s) node.Netlist.fanins
            in
            Hashtbl.add values id (Gate_fn.eval fn ins)
        | Netlist.Const v -> Hashtbl.add values id v
        | _ -> ())
      (Netlist.topo_order nl);
    Array.iteri
      (fun i (name, driver) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d output %s" seed name)
          (Hashtbl.find values driver) (bit outs.(i)))
      (Netlist.outputs nl)
  done

(* ---------- three-valued rails ---------- *)

(* scalar value of one lane of a node's rails *)
let lane_value sim id lane =
  let bit w = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
  if bit (Simulator.ones sim id) then Ternary.One
  else if bit (Simulator.zeros sim id) then Ternary.Zero
  else Ternary.X

(* rails holding one scalar value in every lane *)
let rails vs =
  let word v = Array.map (fun x -> if Ternary.equal x v then full else 0L) vs in
  (word Ternary.One, word Ternary.Zero)

let eval_scalar nl sim ?state pis =
  (match state with
  | Some st ->
      let ones, zeros = rails st in
      Simulator.set_state_rails sim ~ones ~zeros
  | None -> ());
  let ones, zeros = rails pis in
  Simulator.eval_rails sim ~ones ~zeros;
  Array.map (fun (_, d) -> lane_value sim d 0) (Netlist.outputs nl)

let test_ternary_known_inputs () =
  let nl = half_adder () in
  let outs = eval_scalar nl (Simulator.create_ternary nl) [| Ternary.One; Ternary.One |] in
  Alcotest.(check bool) "sum 0" true (Ternary.equal outs.(0) Ternary.Zero);
  Alcotest.(check bool) "carry 1" true (Ternary.equal outs.(1) Ternary.One)

let test_ternary_missing_lut_propagates_x () =
  let nl = half_adder () in
  let s = Netlist.find_exn nl "s" in
  let foundry = Transform.replace_many ~keep_function:false nl [ s ] in
  let outs =
    eval_scalar foundry (Simulator.create_ternary foundry) [| Ternary.One; Ternary.One |]
  in
  Alcotest.(check bool) "sum unknown" true (Ternary.equal outs.(0) Ternary.X);
  Alcotest.(check bool) "carry still known" true
    (Ternary.equal outs.(1) Ternary.One);
  (* a configuration override resolves the missing gate *)
  let sim = Simulator.create_ternary ~configs:[ (s, Truth.of_string "0110") ] foundry in
  let outs = eval_scalar foundry sim [| Ternary.One; Ternary.Zero |] in
  Alcotest.(check bool) "override known" true (Ternary.equal outs.(0) Ternary.One)

let test_ternary_x_state () =
  let nl = counter () in
  let sim = Simulator.create_ternary nl in
  let outs = eval_scalar nl sim ~state:[| Ternary.X; Ternary.X |] [| Ternary.One |] in
  Alcotest.(check bool) "outputs unknown under X state" true
    (Ternary.equal outs.(0) Ternary.X);
  let outs =
    eval_scalar nl sim ~state:[| Ternary.Zero; Ternary.Zero |] [| Ternary.One |]
  in
  Alcotest.(check bool) "known with state" true
    (Ternary.equal outs.(0) Ternary.Zero)

(* Random sequential netlists with configured and unprogrammed LUTs (one
   of them supplied as an override) under random 0/1/X sources: every
   lane of every node must equal the scalar Ternary.eval_gate /
   eval_truth reference. *)
let prop_rails_match_scalar =
  QCheck2.Test.make ~name:"lanes match scalar Ternary" ~count:200
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let nl =
        Generator.generate ~seed
          {
            Generator.design_name = "tern";
            n_pi = 6;
            n_po = 5;
            n_ff = 3;
            n_gates = 40;
            levels = 5;
          }
      in
      let rng = Sttc_util.Rng.make seed in
      let gates = Array.of_list (Netlist.gates nl) in
      let pick k = Array.to_list (Sttc_util.Rng.sample rng k gates) in
      let nl = Transform.replace_many ~keep_function:true nl (pick 4) in
      let missing = pick 4 in
      let nl =
        Transform.replace_many ~keep_function:false nl
          (List.filter
             (fun id ->
               match Netlist.kind nl id with Netlist.Gate _ -> true | _ -> false)
             missing)
      in
      let configs =
        match
          List.filter
            (fun id ->
              match Netlist.kind nl id with
              | Netlist.Lut { config = None; _ } -> true
              | _ -> false)
            (Netlist.luts nl)
        with
        | id :: _ ->
            let arity = Array.length (Netlist.fanins nl id) in
            [ (id, Truth.random rng ~arity) ]
        | [] -> []
      in
      let sim = Simulator.create_ternary ~configs nl in
      (* 0, 1 or X per lane, X a quarter of the time *)
      let draw ids =
        let ones = Array.make (List.length ids) 0L
        and zeros = Array.make (List.length ids) 0L in
        List.iteri
          (fun i _ ->
            let x = Int64.logand (Sttc_util.Rng.int64 rng) (Sttc_util.Rng.int64 rng) in
            let v = Sttc_util.Rng.int64 rng in
            ones.(i) <- Int64.logand v (Int64.lognot x);
            zeros.(i) <- Int64.logand (Int64.lognot v) (Int64.lognot x))
          ids;
        (ones, zeros)
      in
      let st_ones, st_zeros = draw (Netlist.dffs nl) in
      Simulator.set_state_rails sim ~ones:st_ones ~zeros:st_zeros;
      let pi_ones, pi_zeros = draw (Netlist.pis nl) in
      Simulator.eval_rails sim ~ones:pi_ones ~zeros:pi_zeros;
      let source ids (ones, zeros) =
        List.mapi (fun i id -> (id, (ones.(i), zeros.(i)))) ids
      in
      let sources =
        source (Netlist.pis nl) (pi_ones, pi_zeros)
        @ source (Netlist.dffs nl) (st_ones, st_zeros)
      in
      let ok = ref true in
      for lane = 0 to 63 do
        let bit w = Int64.logand (Int64.shift_right_logical w lane) 1L = 1L in
        let v = Array.make (Netlist.node_count nl) Ternary.X in
        Array.iter
          (fun id ->
            let node = Netlist.node nl id in
            let ins () = Array.map (fun s -> v.(s)) node.Netlist.fanins in
            v.(id) <-
              (match node.Netlist.kind with
              | Netlist.Pi | Netlist.Dff ->
                  let o, z = List.assoc id sources in
                  if bit o then Ternary.One
                  else if bit z then Ternary.Zero
                  else Ternary.X
              | Netlist.Const b -> Ternary.of_bool b
              | Netlist.Gate fn -> Ternary.eval_gate fn (ins ())
              | Netlist.Lut { config; _ } -> (
                  match (List.assoc_opt id configs, config) with
                  | Some c, _ | None, Some c -> Ternary.eval_truth c (ins ())
                  | None, None -> Ternary.X)))
          (Netlist.topo_order nl);
        Array.iteri
          (fun id x ->
            if not (Ternary.equal x (lane_value sim id lane)) then ok := false)
          v
      done;
      !ok)

(* ---------- Equiv ---------- *)

let test_equiv_identical () =
  let nl = counter () in
  (match Equiv.check_random ~vectors:1024 ~seed:1 nl nl with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "random: identical must be equivalent");
  match Equiv.check_sat nl nl with
  | Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "sat: identical must be equivalent"

let mutated_counter () =
  (* swap the carry AND for OR: functionally different *)
  let nl = counter () in
  Netlist.with_kinds nl (fun id kind fanins ->
      if Netlist.name nl id = "carry" then (Netlist.Gate (Gate_fn.Or 2), fanins)
      else (kind, fanins))

let test_equiv_detects_difference () =
  let a = counter () and b = mutated_counter () in
  (match Equiv.check_sat a b with
  | Equiv.Different f ->
      Alcotest.(check bool) "signal named" true (String.length f.Equiv.signal > 0)
  | _ -> Alcotest.fail "sat must find the difference");
  match Equiv.check_random ~vectors:2048 ~seed:3 a b with
  | Equiv.Different _ -> ()
  | _ -> Alcotest.fail "random must find the difference"

let test_equiv_witness_is_real () =
  let a = counter () and b = mutated_counter () in
  match Equiv.check_sat a b with
  | Equiv.Different f ->
      (* replay the witness on both circuits: outputs and next state
         must differ *)
      let run nl =
        let oracle = Sttc_attack.Oracle.of_netlist nl in
        Sttc_attack.Oracle.query_lanes oracle
          (Array.of_list
             (List.map
                (fun name -> if List.assoc name f.Equiv.witness then full else 0L)
                (Sttc_attack.Oracle.input_names oracle)))
      in
      let oa = run a and ob = run b in
      Alcotest.(check bool) "witness distinguishes" true (oa <> ob)
  | _ -> Alcotest.fail "expected difference"

let test_equiv_interface_mismatch () =
  let a = counter () and b = half_adder () in
  match Equiv.check_sat a b with
  | Equiv.Inconclusive _ -> ()
  | _ -> Alcotest.fail "expected inconclusive on interface mismatch"

let test_equiv_unprogrammed_lut () =
  let nl = half_adder () in
  let s = Netlist.find_exn nl "s" in
  let foundry = Transform.replace_many ~keep_function:false nl [ s ] in
  match Equiv.check_sat nl foundry with
  | Equiv.Inconclusive _ -> ()
  | _ -> Alcotest.fail "unprogrammed LUT must be inconclusive"

let test_equiv_engines_agree () =
  for seed = 0 to 4 do
    let nl =
      Generator.generate ~seed
        {
          Generator.design_name = "eq";
          n_pi = 5;
          n_po = 4;
          n_ff = 3;
          n_gates = 40;
          levels = 5;
        }
    in
    (* replace two gates keeping function: both engines must say equal *)
    let gates = Netlist.gates nl in
    let picks = [ List.nth gates 0; List.nth gates (List.length gates / 2) ] in
    let nl2 = Transform.replace_many ~keep_function:true nl picks in
    let to_bool = function
      | Equiv.Equivalent -> true
      | Equiv.Different _ -> false
      | Equiv.Inconclusive m -> Alcotest.fail m
    in
    Alcotest.(check bool) "sat" true (to_bool (Equiv.check_sat nl nl2));
    Alcotest.(check bool) "random" true
      (to_bool (Equiv.check_random ~vectors:512 ~seed nl nl2))
  done

(* Two netlists with the same function and interface but their primary
   inputs declared in opposite orders: every engine must pair the inputs
   by name, not by position. *)
let test_equiv_pi_order () =
  let text first second =
    Printf.sprintf
      "INPUT(%s)\nINPUT(%s)\nOUTPUT(z)\nz = AND(a, n)\nn = NOT(b)\n" first
      second
  in
  let a = Sttc_netlist.Bench_io.parse_string (text "a" "b")
  and b = Sttc_netlist.Bench_io.parse_string (text "b" "a") in
  let verdict = function
    | Equiv.Equivalent -> "equivalent"
    | Equiv.Different f -> "different(" ^ f.Equiv.signal ^ ")"
    | Equiv.Inconclusive m -> "inconclusive: " ^ m
  in
  Alcotest.(check string) "sat" "equivalent" (verdict (Equiv.check_sat a b));
  Alcotest.(check string) "random" "equivalent"
    (verdict (Equiv.check_random ~seed:1 a b))

(* The solver work of the sign-off miter (original vs programmed hybrid)
   at seed 1, per algorithm: any change to the formula's variable or
   clause order moves these counts. *)
let test_equiv_signoff_solver_work () =
  let module Flow = Sttc_core.Flow in
  let module Sat = Sttc_logic.Sat in
  List.iter
    (fun (bench, pins) ->
      let nl = Sttc_experiments.Runner.build_circuit bench in
      List.iter2
        (fun algorithm (decisions, propagations, conflicts) ->
          let r = Flow.run ~seed:1 ~policy:Flow.Strict algorithm nl in
          let programmed =
            Sttc_core.Hybrid.programmed r.Flow.accepted.Flow.hybrid
          in
          let label = bench ^ " " ^ Flow.algorithm_name algorithm in
          (match Equiv.check_sat nl programmed with
          | Equiv.Equivalent -> ()
          | _ -> Alcotest.fail (label ^ ": sign-off must be equivalent"));
          let s = Sat.last_stats () in
          Alcotest.(check (triple int int int))
            label
            (decisions, propagations, conflicts)
            (s.Sat.decisions, s.Sat.propagations, s.Sat.conflicts))
        Flow.default_algorithms pins)
    [
      ("s27", [ (32, 462, 26); (28, 369, 22); (28, 355, 19) ]);
      ( "s641",
        [ (6871, 514507, 3550); (7288, 478203, 3631); (6373, 459326, 3155) ] );
    ]

let () =
  Alcotest.run "sttc_sim"
    [
      ( "simulator",
        [
          Alcotest.test_case "half adder" `Quick test_sim_half_adder;
          Alcotest.test_case "counter sequence" `Quick test_sim_counter_sequence;
          Alcotest.test_case "reset/state" `Quick test_sim_reset_and_state;
          Alcotest.test_case "lut config" `Quick test_sim_lut_config;
          Alcotest.test_case "lut lanes" `Quick test_sim_lut_lanes;
          Alcotest.test_case "matches gate semantics" `Quick
            test_sim_matches_gate_semantics;
        ] );
      ( "dual-rail",
        [
          Alcotest.test_case "known inputs" `Quick test_ternary_known_inputs;
          Alcotest.test_case "missing lut X" `Quick
            test_ternary_missing_lut_propagates_x;
          Alcotest.test_case "X state" `Quick test_ternary_x_state;
          QCheck_alcotest.to_alcotest prop_rails_match_scalar;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "identical" `Quick test_equiv_identical;
          Alcotest.test_case "detects difference" `Quick test_equiv_detects_difference;
          Alcotest.test_case "witness is real" `Quick test_equiv_witness_is_real;
          Alcotest.test_case "interface mismatch" `Quick test_equiv_interface_mismatch;
          Alcotest.test_case "unprogrammed lut" `Quick test_equiv_unprogrammed_lut;
          Alcotest.test_case "engines agree" `Quick test_equiv_engines_agree;
          Alcotest.test_case "pi order" `Quick test_equiv_pi_order;
          Alcotest.test_case "sign-off solver work" `Quick
            test_equiv_signoff_solver_work;
        ] );
    ]
