(* Quickstart: build a small sequential circuit with the builder API,
   protect it with parametric-aware selection, program the LUTs back, and
   verify the programmed hybrid is equivalent to the original.

   Run with:  dune exec examples/quickstart.exe *)

module Netlist = Sttc_netlist.Netlist
module Gate_fn = Sttc_logic.Gate_fn
module Flow = Sttc_core.Flow

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted

module Hybrid = Sttc_core.Hybrid

(* A 4-bit-ish datapath fragment: two stages of logic around a register. *)
let build_circuit () =
  let b = Netlist.Builder.create ~design_name:"quickstart" () in
  let a0 = Netlist.Builder.add_pi b "a0" in
  let a1 = Netlist.Builder.add_pi b "a1" in
  let b0 = Netlist.Builder.add_pi b "b0" in
  let b1 = Netlist.Builder.add_pi b "b1" in
  let en = Netlist.Builder.add_pi b "en" in
  (* stage 1: a XOR b per bit, gated by enable *)
  let x0 = Netlist.Builder.add_gate b "x0" (Gate_fn.Xor 2) [| a0; b0 |] in
  let x1 = Netlist.Builder.add_gate b "x1" (Gate_fn.Xor 2) [| a1; b1 |] in
  let g0 = Netlist.Builder.add_gate b "g0" (Gate_fn.And 2) [| x0; en |] in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.And 2) [| x1; en |] in
  (* registers *)
  let r0 = Netlist.Builder.add_dff b "r0" g0 in
  let r1 = Netlist.Builder.add_dff b "r1" g1 in
  (* stage 2: carry-ish logic feeding the outputs and a feedback register *)
  let c = Netlist.Builder.add_gate b "c" (Gate_fn.And 2) [| r0; r1 |] in
  let fb = Netlist.Builder.add_dff_deferred b "fb" in
  let m = Netlist.Builder.add_gate b "m" (Gate_fn.Xor 2) [| c; fb |] in
  Netlist.Builder.set_dff_input b fb m;
  let out0 = Netlist.Builder.add_gate b "out0" (Gate_fn.Or 2) [| r0; m |] in
  let out1 = Netlist.Builder.add_gate b "out1" (Gate_fn.Nand 2) [| r1; m |] in
  Netlist.Builder.add_output b "y0" out0;
  Netlist.Builder.add_output b "y1" out1;
  Netlist.Builder.finalize b

let () =
  let nl = build_circuit () in
  Printf.printf "circuit: %s\n\n" (Netlist.stats nl);

  (* 1. protect: replace selected gates with unconfigured STT LUTs *)
  let result =
    protect ~seed:42
      (Flow.Parametric Sttc_core.Algorithms.default_parametric)
      nl
  in
  let hybrid = result.Flow.hybrid in
  Printf.printf "replaced %d gates with STT LUT slots:\n"
    (Hybrid.lut_count hybrid);
  List.iter
    (fun id ->
      Printf.printf "  %s (fan-in %d)\n"
        (Netlist.name (Hybrid.foundry_view hybrid) id)
        (Array.length (Netlist.fanins (Hybrid.foundry_view hybrid) id)))
    (Hybrid.lut_ids hybrid);

  (* 2. what the foundry sees: missing gates, unknown function *)
  Printf.printf "\nfoundry view (.bench):\n%s\n"
    (Sttc_netlist.Bench_io.to_string (Hybrid.foundry_view hybrid));

  (* 3. the design house programs the secret bitstream after fabrication *)
  Printf.printf "secret bitstream (%d configuration bits):\n"
    (Hybrid.bitstream_bits hybrid);
  List.iter
    (fun (id, config) ->
      Printf.printf "  %s <- %s\n"
        (Netlist.name (Hybrid.foundry_view hybrid) id)
        (Sttc_logic.Truth.to_string config))
    (Hybrid.bitstream hybrid);

  (* 4. sign-off: the programmed hybrid is the original design *)
  (match Hybrid.verify ~method_:`Sat hybrid with
  | Sttc_sim.Equiv.Equivalent ->
      print_endline "\nsign-off: programmed hybrid == original (SAT-proved)"
  | Sttc_sim.Equiv.Different f ->
      Printf.printf "\nsign-off FAILED at %s\n" f.Sttc_sim.Equiv.signal
  | Sttc_sim.Equiv.Inconclusive m -> Printf.printf "\nsign-off inconclusive: %s\n" m);

  (* 5. lint: the hybrid passes both rule packs... *)
  let module D = Sttc_lint.Diagnostic in
  let ds = Flow.lint_security result in
  Printf.printf "\nlint (security pack): %d error(s), clean\n" (D.errors ds);
  assert (D.errors ds = 0);

  (* ...and a corrupted one is caught before anyone attacks (or ships) it.
     Here the "foundry" view accidentally keeps the programmed configs —
     the exact leak SEC006 exists for. *)
  let leaky =
    Sttc_lint.Security_rules.view
      ~foundry:(Hybrid.programmed hybrid)
      ~luts:(Hybrid.lut_ids hybrid) ()
  in
  let caught = Sttc_lint.Security_rules.run leaky in
  Printf.printf "corrupted hybrid (configs left in the foundry view):\n%s"
    (D.render_text ~design:"quickstart-leaky" caught);
  assert (D.errors caught > 0);

  (* 6. the numbers the paper reports *)
  Format.printf "\n%a@." Sttc_core.Security.pp_report result.Flow.security;
  Format.printf "%a@." Sttc_core.Ppa.pp result.Flow.overhead
