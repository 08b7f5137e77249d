(* Tests for Sttc_tech: cell model invariants, the CMOS logical-effort
   behaviour Section III describes, the Fig. 1 reference data and the
   analytical STT-LUT model's shape properties. *)

module Cell = Sttc_tech.Cell
module Cmos = Sttc_tech.Cmos_lib
module Stt = Sttc_tech.Stt_lib
module Library = Sttc_tech.Library
module Gate_fn = Sttc_logic.Gate_fn

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Cell ---------- *)

let test_cell_power_model () =
  let nand2 = Cmos.gate (Gate_fn.Nand 2) in
  let p0 = Cell.dynamic_power_uw nand2 ~activity:0. ~clock_ghz:1. in
  check_float "idle cmos has no dynamic power" 0. p0;
  let p1 = Cell.dynamic_power_uw nand2 ~activity:0.2 ~clock_ghz:1. in
  let p2 = Cell.dynamic_power_uw nand2 ~activity:0.4 ~clock_ghz:1. in
  check_float "cmos dynamic power linear in activity" (2. *. p1) p2;
  Alcotest.check_raises "activity range"
    (Invalid_argument "Cell.dynamic_power_uw: activity out of [0,1]")
    (fun () -> ignore (Cell.dynamic_power_uw nand2 ~activity:1.5 ~clock_ghz:1.))

(* NaN fails every comparison, so each guard must accept only what lies
   inside its range *)
let test_cell_power_nan_guards () =
  let nand2 = Cmos.gate (Gate_fn.Nand 2) in
  Alcotest.check_raises "NaN activity"
    (Invalid_argument "Cell.dynamic_power_uw: activity out of [0,1]")
    (fun () -> ignore (Cell.dynamic_power_uw nand2 ~activity:nan ~clock_ghz:1.));
  Alcotest.check_raises "NaN clock"
    (Invalid_argument "Cell.dynamic_power_uw: clock")
    (fun () -> ignore (Cell.dynamic_power_uw nand2 ~activity:0.2 ~clock_ghz:nan))

let test_cell_stt_activity_independent () =
  let lut = Stt.lut 2 in
  Alcotest.(check bool) "flag" true (Cell.activity_independent lut);
  let p_low = Cell.dynamic_power_uw lut ~activity:0.05 ~clock_ghz:1. in
  let p_high = Cell.dynamic_power_uw lut ~activity:0.45 ~clock_ghz:1. in
  check_float "same power at any activity" p_low p_high;
  Alcotest.(check bool) "cmos is activity dependent" false
    (Cell.activity_independent (Cmos.gate (Gate_fn.Nand 2)))

(* ---------- CMOS library ---------- *)

let test_cmos_fanin_slows_gates () =
  let d fn = (Cmos.gate fn).Cell.delay_ps in
  Alcotest.(check bool) "nand4 slower than nand2" true
    (d (Gate_fn.Nand 4) > d (Gate_fn.Nand 2));
  Alcotest.(check bool) "nor slower than nand (PMOS stack)" true
    (d (Gate_fn.Nor 3) > d (Gate_fn.Nand 3));
  Alcotest.(check bool) "xor slowest 2-input" true
    (d (Gate_fn.Xor 2) > d (Gate_fn.Nand 2)
    && d (Gate_fn.Xor 2) > d (Gate_fn.Nor 2))

let test_cmos_stacking_leakage () =
  (* Section III: series stacks suppress leakage per transistor *)
  let leak_per_pair fn =
    (Cmos.gate fn).Cell.leakage_nw
    /. (float_of_int (Cmos.transistor_count fn) /. 2.)
  in
  Alcotest.(check bool) "nand4 leaks less per pair than nand2" true
    (leak_per_pair (Gate_fn.Nand 4) < leak_per_pair (Gate_fn.Nand 2))

let test_cmos_area_grows_with_transistors () =
  let a fn = (Cmos.gate fn).Cell.area_um2 in
  Alcotest.(check bool) "xor2 bigger than nand2" true
    (a (Gate_fn.Xor 2) > a (Gate_fn.Nand 2));
  Alcotest.(check bool) "nand4 bigger than nand2" true
    (a (Gate_fn.Nand 4) > a (Gate_fn.Nand 2));
  Alcotest.(check int) "nand2 transistor count" 4
    (Cmos.transistor_count (Gate_fn.Nand 2));
  Alcotest.(check int) "and2 = nand2 + inv" 6
    (Cmos.transistor_count (Gate_fn.And 2))

(* ---------- Fig. 1 reference data ---------- *)

let test_fig1_reference_values () =
  (* spot-check embedded published numbers *)
  let row gate =
    List.find (fun r -> r.Stt.gate = gate) Stt.fig1_reference
  in
  let nand2 = row (Gate_fn.Nand 2) in
  check_float "nand2 delay" 6.46 nand2.Stt.delay_ratio;
  check_float "nand2 ap10" 90.35 nand2.Stt.active_power_ratio_10;
  check_float "nand2 standby" 0.48 nand2.Stt.standby_power_ratio;
  let nor4 = row (Gate_fn.Nor 4) in
  check_float "nor4 delay" 3.06 nor4.Stt.delay_ratio;
  check_float "nor4 eps" 7.42 nor4.Stt.energy_per_switching_ratio;
  Alcotest.(check int) "six rows" 6 (List.length Stt.fig1_reference)

let test_fig1_reference_consistency () =
  (* LUT power is data-independent, so ap10 / ap30 must be 3:1 *)
  List.iter
    (fun r ->
      Alcotest.(check (float 0.02))
        (Gate_fn.to_string r.Stt.gate ^ " ap10/ap30")
        3.0
        (r.Stt.active_power_ratio_10 /. r.Stt.active_power_ratio_30))
    Stt.fig1_reference

let test_fig1_model_shape () =
  let m fn = Stt.fig1_model fn in
  (* delay overhead shrinks as the CMOS gate gets more complex *)
  Alcotest.(check bool) "nand4 < nand2 delay ratio" true
    ((m (Gate_fn.Nand 4)).Stt.delay_ratio < (m (Gate_fn.Nand 2)).Stt.delay_ratio);
  Alcotest.(check bool) "nor4 < nor2 delay ratio" true
    ((m (Gate_fn.Nor 4)).Stt.delay_ratio < (m (Gate_fn.Nor 2)).Stt.delay_ratio);
  (* NOR benefits more than NAND (weak PMOS in CMOS NOR) *)
  Alcotest.(check bool) "nor2 ratio < nand2 ratio" true
    ((m (Gate_fn.Nor 2)).Stt.delay_ratio < (m (Gate_fn.Nand 2)).Stt.delay_ratio);
  (* active power ratio falls with activity *)
  List.iter
    (fun fn ->
      let r = m fn in
      Alcotest.(check bool)
        (Gate_fn.to_string fn ^ " ap30 < ap10")
        true
        (r.Stt.active_power_ratio_30 < r.Stt.active_power_ratio_10))
    [ Gate_fn.Nand 2; Gate_fn.Nand 4; Gate_fn.Nor 2; Gate_fn.Nor 4; Gate_fn.Xor 2 ];
  (* standby (leakage) is below CMOS for 2-input gates *)
  Alcotest.(check bool) "nand2 standby < 1" true
    ((m (Gate_fn.Nand 2)).Stt.standby_power_ratio < 1.);
  (* ... and approaches/exceeds parity for stacked high fan-in NAND/NOR *)
  Alcotest.(check bool) "nand4 standby > nand2 standby" true
    ((m (Gate_fn.Nand 4)).Stt.standby_power_ratio
    > (m (Gate_fn.Nand 2)).Stt.standby_power_ratio)

let test_fig1_model_arity_guard () =
  Alcotest.check_raises "arity 5" (Invalid_argument "Stt_lib.fig1_model: arity 2..4")
    (fun () -> ignore (Stt.fig1_model (Gate_fn.Nand 5)))

(* ---------- STT LUT cells ---------- *)

let test_lut_cells_monotone () =
  let l2 = Stt.lut 2 and l3 = Stt.lut 3 and l4 = Stt.lut 4 in
  Alcotest.(check bool) "delay grows" true
    (l2.Cell.delay_ps < l3.Cell.delay_ps && l3.Cell.delay_ps < l4.Cell.delay_ps);
  Alcotest.(check bool) "energy grows" true
    (l2.Cell.switch_energy_fj < l3.Cell.switch_energy_fj
    && l3.Cell.switch_energy_fj < l4.Cell.switch_energy_fj);
  Alcotest.(check bool) "area grows" true
    (l2.Cell.area_um2 < l3.Cell.area_um2 && l3.Cell.area_um2 < l4.Cell.area_um2);
  Alcotest.check_raises "arity 0" (Invalid_argument "Stt_lib.lut: arity out of range")
    (fun () -> ignore (Stt.lut 0))

let test_lut_vs_cmos_calibration () =
  (* the Table I power scale: a LUT2 burns several times an average active
     gate, and its delay ratio to NAND2 matches Fig. 1's 5-7x *)
  let lut2 = Stt.lut 2 in
  let nand2 = Cmos.gate (Gate_fn.Nand 2) in
  let ratio = lut2.Cell.delay_ps /. nand2.Cell.delay_ps in
  Alcotest.(check bool) "delay ratio 4.5-8x" true (ratio > 4.5 && ratio < 8.);
  let power c =
    Cell.dynamic_power_uw c ~activity:0.2 ~clock_ghz:1.
    +. (c.Cell.leakage_nw /. 1000.)
  in
  let lut_power = power lut2 and gate_power = power nand2 in
  Alcotest.(check bool) "power ratio 5-20x" true
    (lut_power /. gate_power > 5. && lut_power /. gate_power < 20.);
  Alcotest.(check bool) "write costly" true
    (Stt.write_energy_fj > lut2.Cell.switch_energy_fj)

let test_sram_baseline () =
  let sram2 = Sttc_tech.Sram_lib.lut 2 and stt2 = Stt.lut 2 in
  (* the Section II trade-off: SRAM reads faster but leaks much more *)
  Alcotest.(check bool) "sram faster" true
    (sram2.Cell.delay_ps < stt2.Cell.delay_ps);
  Alcotest.(check bool) "sram leaks more" true
    (sram2.Cell.leakage_nw > 3. *. stt2.Cell.leakage_nw);
  Alcotest.(check bool) "sram bigger" true
    (sram2.Cell.area_um2 > stt2.Cell.area_um2);
  (* library style switch reaches the analyses *)
  let stt_lib = Library.cmos90 in
  let sram_lib = Library.of_lut_style Library.Sram in
  Alcotest.(check bool) "cmos90 is the stt style" true
    (stt_lib = Library.of_lut_style Library.Stt);
  let kind = Sttc_netlist.Netlist.Lut { arity = 2; config = None } in
  Alcotest.(check bool) "delays differ" true
    (Library.node_delay_ps stt_lib kind <> Library.node_delay_ps sram_lib kind)

(* ---------- Library ---------- *)

let test_library_lookup () =
  let lib = Library.cmos90 in
  Alcotest.(check bool) "pi has no cell" true
    (Library.cell_of_kind lib Sttc_netlist.Netlist.Pi = None);
  (match Library.cell_of_kind lib (Sttc_netlist.Netlist.Gate (Gate_fn.Nand 2)) with
  | Some c -> Alcotest.(check string) "nand cell" "NAND2" c.Cell.cell_name
  | None -> Alcotest.fail "expected cell");
  (match
     Library.cell_of_kind lib (Sttc_netlist.Netlist.Lut { arity = 3; config = None })
   with
  | Some c -> Alcotest.(check string) "lut cell" "STT_LUT3" c.Cell.cell_name
  | None -> Alcotest.fail "expected cell");
  check_float "pi delay" 0. (Library.node_delay_ps lib Sttc_netlist.Netlist.Pi)

(* Cells are built once per gate function and LUT arity; lookups return
   the shared cell, and invalid arities raise as before. *)
let test_memoized_cells () =
  List.iter
    (fun fn ->
      let c = Cmos.gate fn in
      Alcotest.(check string) "gate cell name" (Gate_fn.to_string fn) c.Cell.cell_name;
      Alcotest.(check int) "gate cell arity" (Gate_fn.arity fn) c.Cell.arity;
      Alcotest.(check bool) "gate cell shared" true (Cmos.gate fn == c))
    Gate_fn.all;
  List.iter
    (fun fn ->
      Alcotest.check_raises (Gate_fn.to_string fn)
        (Invalid_argument "Gate_fn.validate: arity out of [2, 6]") (fun () ->
          ignore (Cmos.gate fn)))
    [ Gate_fn.And 1; Gate_fn.Xnor 7 ];
  List.iter
    (fun (prefix, lut, who) ->
      for n = 1 to Sttc_logic.Truth.max_arity do
        let c = lut n in
        Alcotest.(check string) "lut cell name" (Printf.sprintf "%s%d" prefix n)
          c.Cell.cell_name;
        Alcotest.(check bool) "lut cell shared" true (lut n == c)
      done;
      List.iter
        (fun n ->
          Alcotest.check_raises
            (Printf.sprintf "%s arity %d" who n)
            (Invalid_argument (who ^ ".lut: arity out of range"))
            (fun () -> ignore (lut n)))
        [ 0; 7 ])
    [
      ("STT_LUT", Stt.lut, "Stt_lib");
      ("SRAM_LUT", Sttc_tech.Sram_lib.lut, "Sram_lib");
      ("TVD_CAMO", Sttc_tech.Tvd_lib.lut, "Tvd_lib");
    ]

let () =
  Alcotest.run "sttc_tech"
    [
      ( "cell",
        [
          Alcotest.test_case "power model" `Quick test_cell_power_model;
          Alcotest.test_case "NaN guards" `Quick test_cell_power_nan_guards;
          Alcotest.test_case "stt activity independence" `Quick
            test_cell_stt_activity_independent;
        ] );
      ( "cmos",
        [
          Alcotest.test_case "fan-in slows gates" `Quick test_cmos_fanin_slows_gates;
          Alcotest.test_case "stacking leakage" `Quick test_cmos_stacking_leakage;
          Alcotest.test_case "area" `Quick test_cmos_area_grows_with_transistors;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "reference values" `Quick test_fig1_reference_values;
          Alcotest.test_case "reference consistency" `Quick
            test_fig1_reference_consistency;
          Alcotest.test_case "model shape" `Quick test_fig1_model_shape;
          Alcotest.test_case "model arity guard" `Quick test_fig1_model_arity_guard;
        ] );
      ( "stt_lut",
        [
          Alcotest.test_case "monotone in fan-in" `Quick test_lut_cells_monotone;
          Alcotest.test_case "calibration vs CMOS" `Quick test_lut_vs_cmos_calibration;
        ] );
      ( "library",
        [
          Alcotest.test_case "lookup" `Quick test_library_lookup;
          Alcotest.test_case "memoized cells" `Quick test_memoized_cells;
        ] );
      ("sram", [ Alcotest.test_case "baseline trade-offs" `Quick test_sram_baseline ]);
    ]
