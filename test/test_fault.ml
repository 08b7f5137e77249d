(* Tests for Sttc_fault (MTJ write channel, SECDED code) and the
   resilience built on it: the retrying provisioner, the hardened
   bitstream parser and the crash-tolerant experiment runner. *)

module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Truth = Sttc_logic.Truth
module Rng = Sttc_util.Rng
module Mtj = Sttc_fault.Mtj
module Ecc = Sttc_fault.Ecc
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Hybrid = Sttc_core.Hybrid
module Provision = Sttc_core.Provision
module Runner = Sttc_experiments.Runner

let to_case = QCheck_alcotest.to_alcotest

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let small_circuit seed =
  Generator.generate ~seed
    {
      Generator.design_name = "flt";
      n_pi = 8;
      n_po = 6;
      n_ff = 5;
      n_gates = 70;
      levels = 6;
    }

let equivalent a b =
  match Sttc_sim.Equiv.check_sat a b with
  | Sttc_sim.Equiv.Equivalent -> true
  | _ -> false

(* ---------- Ecc ---------- *)

let test_ecc_parity_bits () =
  let parity_bits n = Array.length (Ecc.encode (Array.make n false)) in
  Alcotest.(check int) "4 data" 4 (parity_bits 4);
  Alcotest.(check int) "8 data" 5 (parity_bits 8);
  Alcotest.(check int) "16 data" 6 (parity_bits 16);
  Alcotest.(check int) "64 data" 8 (parity_bits 64);
  Alcotest.check_raises "parity length checked"
    (Invalid_argument "Ecc.decode: parity length mismatch") (fun () ->
      ignore (Ecc.decode ~data:(Array.make 16 false) ~parity:(Array.make 5 false)))

let prop_ecc_clean_roundtrip =
  QCheck2.Test.make ~name:"ecc: undisturbed codeword decodes Clean" ~count:200
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let data = Array.init n (fun _ -> Rng.bool rng) in
      Ecc.decode ~data ~parity:(Ecc.encode data) = Ecc.Clean)

let prop_ecc_single_data_flip_corrected =
  QCheck2.Test.make ~name:"ecc: any single data flip is corrected" ~count:200
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let data = Array.init n (fun _ -> Rng.bool rng) in
      let parity = Ecc.encode data in
      let flip_at = Rng.int rng n in
      let bad = Array.copy data in
      bad.(flip_at) <- not bad.(flip_at);
      match Ecc.decode ~data:bad ~parity with
      | Ecc.Corrected repaired -> repaired = data
      | Ecc.Clean | Ecc.Uncorrectable -> false)

let prop_ecc_single_parity_flip_corrected =
  QCheck2.Test.make ~name:"ecc: any single parity flip leaves data intact"
    ~count:200
    QCheck2.Gen.(pair (int_range 1 64) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let data = Array.init n (fun _ -> Rng.bool rng) in
      let parity = Ecc.encode data in
      let flip_at = Rng.int rng (Array.length parity) in
      let bad = Array.copy parity in
      bad.(flip_at) <- not bad.(flip_at);
      match Ecc.decode ~data ~parity:bad with
      | Ecc.Corrected repaired -> repaired = data
      | Ecc.Clean | Ecc.Uncorrectable -> false)

let prop_ecc_double_flip_detected =
  QCheck2.Test.make ~name:"ecc: any double data flip is Uncorrectable"
    ~count:200
    QCheck2.Gen.(pair (int_range 2 64) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.make seed in
      let data = Array.init n (fun _ -> Rng.bool rng) in
      let parity = Ecc.encode data in
      let i = Rng.int rng n in
      let j = (i + 1 + Rng.int rng (n - 1)) mod n in
      let bad = Array.copy data in
      bad.(i) <- not bad.(i);
      bad.(j) <- not bad.(j);
      Ecc.decode ~data:bad ~parity = Ecc.Uncorrectable)

(* ---------- Mtj ---------- *)

let test_mtj_ideal_channel () =
  let ch = Mtj.channel ~seed:3 (Mtj.spec ~write_error_rate:0. ()) in
  for cell = 0 to 15 do
    let target = cell mod 3 = 0 in
    Alcotest.(check bool) "write sticks" target
      (Mtj.write ch ~lut:"u1" ~cell target);
    Alcotest.(check bool) "read agrees" target (Mtj.read ch ~lut:"u1" ~cell)
  done;
  Alcotest.(check int) "attempts counted" 16 (Mtj.attempts ch);
  Alcotest.(check bool) "no stuck cells" false (Mtj.is_stuck ch ~lut:"u1" ~cell:0)

let test_mtj_deterministic_across_order () =
  let spec = Mtj.spec ~write_error_rate:0.3 ~stuck_cell_rate:0.1 () in
  let addresses =
    List.concat_map
      (fun lut -> List.init 8 (fun cell -> (lut, cell)))
      [ "u1"; "u2"; "u3" ]
  in
  let program order =
    let ch = Mtj.channel ~seed:42 spec in
    List.iter (fun (lut, cell) -> ignore (Mtj.write ch ~lut ~cell true)) order;
    List.map (fun (lut, cell) -> Mtj.read ch ~lut ~cell) addresses
  in
  Alcotest.(check (list bool)) "write order is irrelevant"
    (program addresses)
    (program (List.rev addresses))

let test_mtj_always_failing_writes () =
  (* rate 1: no write ever changes a cell, so read-back equals the
     as-fabricated value regardless of target *)
  let spec = Mtj.spec ~write_error_rate:1.0 () in
  let ch = Mtj.channel ~seed:5 spec in
  for cell = 0 to 31 do
    let fabricated = Mtj.read ch ~lut:"u9" ~cell in
    Alcotest.(check bool) "failed write keeps value" fabricated
      (Mtj.write ch ~lut:"u9" ~cell (not fabricated))
  done

let test_mtj_stuck_cells () =
  let spec = Mtj.spec ~stuck_cell_rate:1.0 () in
  let ch = Mtj.channel ~seed:6 spec in
  for cell = 0 to 15 do
    Alcotest.(check bool) "all stuck" true (Mtj.is_stuck ch ~lut:"u2" ~cell);
    let fabricated = Mtj.read ch ~lut:"u2" ~cell in
    ignore (Mtj.write ch ~lut:"u2" ~cell (not fabricated));
    Alcotest.(check bool) "stuck cell never changes" fabricated
      (Mtj.read ch ~lut:"u2" ~cell)
  done

let test_mtj_escalation_energy () =
  let spec = Mtj.spec ~escalation_gain:10. () in
  let ch = Mtj.channel ~seed:7 spec in
  ignore (Mtj.write ch ~lut:"u1" ~cell:0 true);
  ignore (Mtj.write ch ~lut:"u1" ~cell:1 ~escalation:2 true);
  (* 10^0 + 10^2 units *)
  Alcotest.(check (float 1e-9)) "energy accounting" 101. (Mtj.energy_units ch);
  Alcotest.(check int) "verify per attempt" 2 (Mtj.verify_reads ch)

let test_mtj_spec_validation () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "rate > 1" true
    (rejects (fun () -> Mtj.spec ~write_error_rate:1.5 ()));
  Alcotest.(check bool) "negative rate" true
    (rejects (fun () -> Mtj.spec ~stuck_cell_rate:(-0.1) ()));
  Alcotest.(check bool) "gain < 1" true
    (rejects (fun () -> Mtj.spec ~escalation_gain:0.5 ()))

(* ---------- Provision.parse hardening ---------- *)

let programmed_hybrid seed =
  let nl = small_circuit seed in
  let r = protect ~seed (Flow.Independent { count = 4 }) nl in
  (nl, r.Flow.hybrid)

let reference_entries seed =
  let _, h = programmed_hybrid seed in
  Provision.of_hybrid h

let test_parse_crlf_and_whitespace () =
  let entries = reference_entries 34 in
  let text = Provision.to_string entries in
  let crlf =
    String.concat "\r\n" (String.split_on_char '\n' text) ^ "\r\n"
  in
  let padded =
    String.concat "\n"
      (List.map (fun l -> l ^ "   \t") (String.split_on_char '\n' text))
  in
  List.iter
    (fun mangled ->
      let back = Provision.parse mangled in
      Alcotest.(check int) "entry count survives" (List.length entries)
        (List.length back);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "name" a.Provision.lut_name b.Provision.lut_name;
          Alcotest.(check bool) "config" true
            (Truth.equal a.Provision.config b.Provision.config))
        entries back)
    [ crlf; padded ]

let test_parse_reports_line_numbers () =
  let fails_with_line text =
    match Provision.parse text with
    | _ -> Alcotest.fail "malformed bitstream accepted"
    | exception Failure msg ->
        Alcotest.(check bool) ("labelled: " ^ msg) true (contains msg "bitstream:")
  in
  fails_with_line "u1 01x0";
  fails_with_line "u1 010";
  (* not a power of two *)
  fails_with_line "u1 01\nu1 10";
  (* duplicate *)
  fails_with_line "justaname"

(* A bitstream mangled in transit: [char_flips] random characters
   overwritten with bytes the parser cares about, then the text cut at
   [truncate_at].  The result may still parse, parse to different
   entries, or make the parser raise. *)
let corrupt_bitstream ~rng ~char_flips ~truncate_at text =
  let b = Bytes.of_string text in
  let n = Bytes.length b in
  if n > 0 then
    for _ = 1 to char_flips do
      let i = Rng.int rng n in
      let repl = [| ' '; '\t'; '\r'; '\n'; '0'; '1'; '2'; 'x'; '#'; '_' |] in
      Bytes.set b i (Rng.pick rng repl)
    done;
  let s = Bytes.to_string b in
  if truncate_at < String.length s then String.sub s 0 (max 0 truncate_at)
  else s

let prop_parse_never_escapes =
  QCheck2.Test.make
    ~name:"corrupted bitstream: parse is total modulo labelled Failure"
    ~count:300
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 12) (int_range 0 400))
    (fun (seed, char_flips, cut) ->
      let entries = reference_entries 35 in
      let text = Provision.to_string entries in
      let mangled =
        corrupt_bitstream ~rng:(Rng.make seed) ~char_flips
          ~truncate_at:(min cut (String.length text))
          text
      in
      match Provision.parse mangled with
      | _ -> true
      | exception Failure msg ->
          (* the contract: a Failure naming the offending line *)
          contains msg "bitstream:"
      | exception _ -> false)

(* ---------- Provision.program: resilient provisioning ---------- *)

(* The ISCAS-profile acceptance scenario: at write-error rate 1e-3 the
   one-shot provisioner fails this die (channel seed 9, found by
   search), while the retrying one programs it exactly, with sign-off
   equivalence on the repaired view. *)
let acceptance_fixture () =
  let nl = Sttc_netlist.Iscas_profiles.build_by_name "s641" in
  let r = protect ~seed:7 Flow.Dependent nl in
  (nl, Hybrid.foundry_view r.Flow.hybrid, Provision.of_hybrid r.Flow.hybrid)

let test_program_acceptance_1e3 () =
  let nl, foundry, entries = acceptance_fixture () in
  let spec = Mtj.spec ~write_error_rate:1e-3 () in
  let zero =
    Provision.program ~resilience:Provision.no_resilience
      ~channel:(Mtj.channel ~seed:9 spec) foundry entries
  in
  (match zero.Provision.outcome with
  | Provision.Failed (Provision.Unprogrammable cells) ->
      Alcotest.(check bool) "names the bad cells" true (cells <> [])
  | _ -> Alcotest.fail "zero-retry provisioning must fail on this die");
  let resilient =
    Provision.program ~resilience:Provision.default_resilience
      ~channel:(Mtj.channel ~seed:9 spec) foundry entries
  in
  (match resilient.Provision.outcome with
  | Provision.Programmed | Provision.Degraded _ -> ()
  | Provision.Failed _ -> Alcotest.fail "retrying provisioner must succeed");
  Alcotest.(check (list (pair string int))) "no failed bits" []
    resilient.Provision.failed_bits;
  (match resilient.Provision.view with
  | Some view ->
      Alcotest.(check bool) "sign-off equivalence on the repaired view" true
        (equivalent nl view)
  | None -> Alcotest.fail "resilient report must carry the programmed view");
  Alcotest.(check bool) "extra write attempts were spent" true
    (resilient.Provision.write_attempts > zero.Provision.write_attempts)

let test_program_degraded_by_spares () =
  let nl, foundry, entries = acceptance_fixture () in
  let spec = Mtj.spec ~write_error_rate:1e-4 ~stuck_cell_rate:0.01 () in
  let report =
    Provision.program ~resilience:Provision.default_resilience
      ~channel:(Mtj.channel ~seed:1 spec) foundry entries
  in
  (match report.Provision.outcome with
  | Provision.Degraded { spared_bits; _ } ->
      Alcotest.(check bool) "stuck rows remapped to spares" true (spared_bits > 0)
  | _ -> Alcotest.fail "this die must come out Degraded");
  match report.Provision.view with
  | Some view ->
      Alcotest.(check bool) "degraded part still equivalent" true
        (equivalent nl view)
  | None -> Alcotest.fail "degraded report must carry the view"

let test_program_degraded_by_ecc () =
  let nl, foundry, entries = acceptance_fixture () in
  let spec = Mtj.spec ~write_error_rate:1e-4 ~stuck_cell_rate:0.01 () in
  let resilience = { Provision.default_resilience with spare_rows = 0 } in
  let report =
    Provision.program ~resilience ~channel:(Mtj.channel ~seed:1 spec) foundry
      entries
  in
  (match report.Provision.outcome with
  | Provision.Degraded { corrected_bits; spared_bits } ->
      Alcotest.(check bool) "ECC repaired the stuck rows" true
        (corrected_bits > 0);
      Alcotest.(check int) "no spares available" 0 spared_bits
  | _ -> Alcotest.fail "this die must come out Degraded via ECC");
  match report.Provision.view with
  | Some view ->
      Alcotest.(check bool) "ECC-corrected part equivalent" true
        (equivalent nl view)
  | None -> Alcotest.fail "report must carry the corrected view"

let test_program_structural_failures () =
  let _, foundry, entries = acceptance_fixture () in
  let channel () = Mtj.channel ~seed:2 (Mtj.spec ~write_error_rate:0. ()) in
  (* an entry naming a node the netlist lacks *)
  let ghost =
    { Provision.lut_name = "no_such_lut"; config = (List.hd entries).Provision.config }
  in
  (match
     (Provision.program ~channel:(channel ()) foundry (ghost :: List.tl entries))
       .Provision.outcome
   with
  | Provision.Failed (Provision.Missing_lut "no_such_lut") -> ()
  | _ -> Alcotest.fail "missing LUT must classify as Missing_lut");
  (* a missing entry leaves a LUT unconfigured *)
  (match
     (Provision.program ~channel:(channel ()) foundry (List.tl entries))
       .Provision.outcome
   with
  | Provision.Failed (Provision.Unconfigured names) ->
      Alcotest.(check bool) "names the unconfigured slot" true (names <> [])
  | _ -> Alcotest.fail "partial bitstream must classify as Unconfigured");
  (* duplicates *)
  match
    (Provision.program ~channel:(channel ()) foundry
       (List.hd entries :: entries))
      .Provision.outcome
  with
  | Provision.Failed (Provision.Duplicate_entry _) -> ()
  | _ -> Alcotest.fail "duplicate entries must classify as Duplicate_entry"

let test_program_ideal_channel_matches_apply () =
  let _, foundry, entries = acceptance_fixture () in
  let report =
    Provision.program ~channel:(Mtj.channel ~seed:0 (Mtj.spec ~write_error_rate:0. ())) foundry entries
  in
  (match report.Provision.outcome with
  | Provision.Programmed -> ()
  | _ -> Alcotest.fail "ideal channel must program exactly");
  match report.Provision.view with
  | Some view ->
      Alcotest.(check bool) "same netlist as Provision.apply" true
        (equivalent (Provision.apply foundry entries) view)
  | None -> Alcotest.fail "view missing"

(* ---------- Runner: isolation and timeout ---------- *)

let test_runner_zero_timeout_partial_rows () =
  let rows =
    Runner.rows
      { (Runner.Config.(default |> with_only [ "s641" ])) with timeout_s = Some 0. }
  in
  match rows with
  | [ row ] ->
      Alcotest.(check (list string)) "no results" []
        (List.map fst row.Sttc_core.Report.results);
      Alcotest.(check int) "all three algorithms reported failed" 3
        (List.length row.Sttc_core.Report.failures);
      let t1 = Runner.table1 rows in
      Alcotest.(check bool) "rendered as partial" true
        (contains t1 "partial results:");
      (* Fig. 3 renders failed cells as "-" too, so it footnotes them *)
      Alcotest.(check bool) "fig3 footnotes the stage and its budget" true
        (contains (Runner.fig3 rows)
           "partial results:\n  ! s641/independent: build: timeout after 0.0s")
  | _ -> Alcotest.fail "expected exactly one row"

(* A stage that overruns its budget is a timeout, never an isolation
   crash, and the rows are the same at any job count.  The two
   benchmarks make a bag large enough that -j2 really fans out. *)
let test_runner_tiny_budget_isolated () =
  let run jobs =
    Runner.rows
      Runner.Config.(
        {
          (default |> with_only [ "s9234a"; "s13207" ] |> with_jobs jobs) with
          timeout_s = Some 1e-6;
          isolate = true;
        })
  in
  let rows_j1 = run 1 and rows_j2 = run 2 in
  Alcotest.(check string) "rows byte-identical at -j1 and -j2"
    (Runner.table1 rows_j1) (Runner.table1 rows_j2);
  let reasons =
    List.concat_map
      (fun row -> List.map snd row.Sttc_core.Report.failures)
      rows_j1
  in
  Alcotest.(check int) "every stage overran" 6 (List.length reasons);
  List.iter
    (fun reason ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is a timeout, never a crash" reason)
        true
        (contains reason ": timeout after "))
    reasons

let test_runner_unknown_benchmark_rejected () =
  Alcotest.(check bool) "unknown name raises before any work" true
    (try
       ignore
         (Runner.rows
            Runner.Config.(default |> with_only [ "definitely-not-a-bench" ]));
       false
     with Invalid_argument _ | Failure _ -> true)

(* ---------- fault sweep (the CLI/bench surface) ---------- *)

let test_fault_sweep_renders () =
  let out =
    Runner.fault_sweep ~rates:[ 1e-3 ] ~dies:2 ()
  in
  Alcotest.(check bool) "mentions yield" true
    (contains out "programming yield over dies");
  Alcotest.(check bool) "compares both provisioners" true
    (contains out "zero-retry" && contains out "resilient")

(* Every die draws from a seed pre-derived from the die index, so the
   sweep renders byte-identically at any job count. *)
let test_fault_sweep_parallel_identical () =
  let serial = Runner.fault_sweep ~rates:[ 1e-3 ] ~dies:4 () in
  let parallel = Runner.fault_sweep ~rates:[ 1e-3 ] ~dies:4 ~jobs:3 () in
  Alcotest.(check string) "sweep byte-identical" serial parallel

let () =
  Alcotest.run "sttc_fault"
    [
      ( "ecc",
        [
          Alcotest.test_case "parity bits" `Quick test_ecc_parity_bits;
          to_case prop_ecc_clean_roundtrip;
          to_case prop_ecc_single_data_flip_corrected;
          to_case prop_ecc_single_parity_flip_corrected;
          to_case prop_ecc_double_flip_detected;
        ] );
      ( "mtj",
        [
          Alcotest.test_case "ideal channel" `Quick test_mtj_ideal_channel;
          Alcotest.test_case "order-independent" `Quick
            test_mtj_deterministic_across_order;
          Alcotest.test_case "always-failing writes" `Quick
            test_mtj_always_failing_writes;
          Alcotest.test_case "stuck cells" `Quick test_mtj_stuck_cells;
          Alcotest.test_case "escalation energy" `Quick
            test_mtj_escalation_energy;
          Alcotest.test_case "spec validation" `Quick test_mtj_spec_validation;
        ] );
      ( "parse",
        [
          Alcotest.test_case "crlf and whitespace" `Quick
            test_parse_crlf_and_whitespace;
          Alcotest.test_case "line numbers" `Quick
            test_parse_reports_line_numbers;
          to_case prop_parse_never_escapes;
        ] );
      ( "program",
        [
          Alcotest.test_case "acceptance at 1e-3" `Slow
            test_program_acceptance_1e3;
          Alcotest.test_case "degraded by spares" `Slow
            test_program_degraded_by_spares;
          Alcotest.test_case "degraded by ECC" `Slow test_program_degraded_by_ecc;
          Alcotest.test_case "structural failures" `Quick
            test_program_structural_failures;
          Alcotest.test_case "ideal channel = apply" `Quick
            test_program_ideal_channel_matches_apply;
        ] );
      ( "runner",
        [
          Alcotest.test_case "zero timeout partial rows" `Quick
            test_runner_zero_timeout_partial_rows;
          Alcotest.test_case "unknown benchmark rejected" `Quick
            test_runner_unknown_benchmark_rejected;
          Alcotest.test_case "tiny budget is a timeout, not a crash" `Quick
            test_runner_tiny_budget_isolated;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "renders" `Slow test_fault_sweep_renders;
          Alcotest.test_case "parallel identical" `Slow
            test_fault_sweep_parallel_identical;
        ] );
    ]
