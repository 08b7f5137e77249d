(* Tests for Sttc_lint: the diagnostics core, the rule packs (each rule
   fires on a minimal violating design, except the structural error rows,
   whose faults the netlist reader refuses), and the clean-on-valid-input
   properties the subsystem guarantees. *)

module D = Sttc_lint.Diagnostic
module Structural = Sttc_lint.Structural
module Sec = Sttc_lint.Security_rules
module Lint = Sttc_lint.Lint
module Netlist = Sttc_netlist.Netlist
module Bench_io = Sttc_netlist.Bench_io
module Transform = Sttc_netlist.Transform
module Generator = Sttc_netlist.Generator
module Gate_fn = Sttc_logic.Gate_fn
module Flow = Sttc_core.Flow
module Sem = Sttc_lint.Semantic_rules

(* strict single-attempt protection via the unified Flow.run entry point *)
let protect ?seed ?fraction ?hardening alg nl =
  (Flow.run ?seed ?fraction ?hardening ~policy:Flow.Strict alg nl)
    .Flow.accepted


let fires rule ds = D.filter_rules ~only:[ rule ] ds <> []

let check_fires name rule ds =
  Alcotest.(check bool) (name ^ ": " ^ rule ^ " fires") true (fires rule ds)

let check_silent name rule ds =
  Alcotest.(check bool) (name ^ ": " ^ rule ^ " silent") false (fires rule ds)

(* ---------- diagnostics core ---------- *)

let d1 = D.make ~rule:"STR001" ~alias:"comb-loop" ~severity:D.Error ~node:"g1" "x"
let d2 = D.make ~rule:"SEC001" ~alias:"trivial-lut" ~severity:D.Warning "y"

let test_diag_basics () =
  Alcotest.(check (list string)) "keys, sorted" [ "SEC001@-"; "STR001@g1" ]
    (List.filter
       (fun line -> line <> "" && line.[0] <> '#')
       (String.split_on_char '\n'
          (D.baseline_to_string (D.baseline_of_diagnostics [ d1; d2 ]))));
  Alcotest.(check int) "errors" 1 (D.errors [ d1; d2 ]);
  Alcotest.(check bool) "match id" true (fires "str001" [ d1 ]);
  Alcotest.(check bool) "match alias" true (fires "comb-loop" [ d1 ]);
  Alcotest.(check bool) "no match" false (fires "STR002" [ d1 ]);
  Alcotest.(check int) "sort worst first" (-1)
    (compare (D.compare d1 d2) 0);
  Alcotest.(check int) "filter" 1
    (List.length (D.filter_rules ~only:[ "SEC001" ] [ d1; d2 ]));
  Alcotest.(check int) "suppress" 1
    (List.length (D.suppress ~rules:[ "trivial-lut" ] [ d1; d2 ]))

let test_diag_baseline () =
  let b = D.baseline_of_diagnostics [ d1 ] in
  Alcotest.(check int) "baselined dropped" 1
    (List.length (D.apply_baseline b [ d1; d2 ]));
  let b2 = D.baseline_of_string (D.baseline_to_string b ^ "\n# comment\n") in
  Alcotest.(check int) "roundtrip" 1
    (List.length (D.apply_baseline b2 [ d1; d2 ]));
  Alcotest.(check int) "empty keeps all" 2
    (List.length (D.apply_baseline D.empty_baseline [ d1; d2 ]))

let test_diag_render () =
  let txt = D.render_text ~design:"t" [ d1; d2 ] in
  Alcotest.(check bool) "text has summary" true
    (String.length txt > 0
    && List.exists
         (fun line ->
           String.length line >= 8 && String.sub line 0 8 = "summary:")
         (String.split_on_char '\n' txt));
  let json = D.render_json ~design:"t" [ d1; d2 ] in
  Alcotest.(check bool) "json mentions rule" true
    (let n = String.length json in
     let needle = "\"STR001\"" in
     let k = String.length needle in
     let rec go i = i + k <= n && (String.sub json i k = needle || go (i + 1)) in
     go 0);
  (* empty list renders an empty diagnostics array *)
  let empty = D.render_json ~design:"t" [] in
  Alcotest.(check bool) "empty json" true
    (let n = String.length empty in
     let needle = "\"diagnostics\": []" in
     let k = String.length needle in
     let rec go i = i + k <= n && (String.sub empty i k = needle || go (i + 1)) in
     go 0)

let test_catalog () =
  let ids prefix n = List.init n (fun i -> Printf.sprintf "%s%03d" prefix (i + 1)) in
  Alcotest.(check int) "22 rules" 22
    (List.length
       (List.filter_map Lint.find_rule (ids "STR" 8 @ ids "SEC" 8 @ ids "SEM" 9)));
  (match Lint.find_rule "comb-loop" with
  | Some r -> Alcotest.(check string) "alias lookup" "STR001" r.Structural.id
  | None -> Alcotest.fail "comb-loop not found");
  (match Lint.find_rule "SEC004" with
  | Some r -> Alcotest.(check string) "id lookup" "unobservable-lut" r.Structural.alias
  | None -> Alcotest.fail "SEC004 not found");
  (match Lint.find_rule "const-net" with
  | Some r -> Alcotest.(check string) "SEM alias lookup" "SEM001" r.Structural.id
  | None -> Alcotest.fail "const-net not found");
  (match Lint.find_rule "SEM008" with
  | Some r ->
      Alcotest.(check string) "SEM id lookup" "independent-testability"
        r.Structural.alias
  | None -> Alcotest.fail "SEM008 not found");
  Alcotest.(check bool) "unknown" true (Lint.find_rule "XYZ999" = None);
  let text = Lint.catalog_text () in
  Alcotest.(check bool) "catalog text" true (String.length text > 100);
  (* the catalog is grouped by pack: each header names its prefix *)
  List.iter
    (fun pack ->
      Alcotest.(check bool) ("catalog mentions " ^ pack) true
        (let n = String.length text and k = String.length pack in
         let rec go i = i + k <= n && (String.sub text i k = pack || go (i + 1)) in
         go 0))
    [ "STR"; "SEC"; "SEM" ]

(* ---------- structural rules ---------- *)

let parse text = Bench_io.parse_string ~design_name:"t" text

(* The six error rows name faults the netlist reader refuses: [text],
   which holds [rule]'s fault, fails to parse at [line], so no lint run
   ever sees it, and the row still resolves for --rules and --suppress. *)
let refused rule text line =
  (match Lint.find_rule rule with
  | Some r ->
      Alcotest.(check bool) (rule ^ " is an error row") true
        (r.Structural.severity = D.Error)
  | None -> Alcotest.failf "%s is not in the catalog" rule);
  match parse text with
  | _ -> Alcotest.failf "%s: the reader accepted its fault" rule
  | exception Bench_io.Parse_error (l, _) ->
      Alcotest.(check int) (rule ^ " refused at line") line l

let test_str_comb_loop () =
  refused "comb-loop" "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUFF(y)\n" 3;
  (* the same shape through a flip-flop is legal *)
  let ok = parse "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = DFF(y)\n" in
  Alcotest.(check int) "dff breaks loop" 0 (D.errors (Structural.check ok))

let test_str_undriven () =
  refused "undriven-net" "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n" 3;
  refused "undriven-net" "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\n" 3;
  refused "undriven-net" "INPUT(a)\nOUTPUT(y)\nff = DFF(ghost)\ny = AND(a, ff)\n" 3

let test_str_multi_driver () =
  refused "multi-driver" "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n" 4;
  refused "multi-driver" "INPUT(a)\nOUTPUT(y)\na = NOT(a)\ny = BUFF(a)\n" 3

let test_str_arity () =
  refused "arity-mismatch" "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n" 3;
  refused "arity-mismatch"
    "INPUT(a)\nOUTPUT(y)\ny = LUT(a, a, a, a, a, a, a)\n" 3;
  refused "arity-mismatch" "INPUT(a)\nOUTPUT(y)\nff = DFF(a, a)\ny = BUFF(ff)\n" 3

let test_str_duplicate_output () =
  refused "duplicate-name" "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n" 3

let test_str_no_output () = refused "no-output" "INPUT(a)\ny = NOT(a)\n" 2

let render ds =
  List.map
    (fun d ->
      Printf.sprintf "%s@%s: %s" d.D.rule
        (Option.value d.D.node ~default:"-")
        d.D.detail)
    ds

let test_str_dangling () =
  let ds =
    Structural.check
      (parse "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\ndead = NOT(a)\n")
  in
  check_fires "dead gate" "dangling-gate" ds;
  (* it is a warning, not an error *)
  Alcotest.(check int) "no errors" 0 (D.errors ds);
  (* a gate feeding only a flip-flop is not dangling *)
  let ok =
    parse
      "INPUT(a)\nOUTPUT(y)\ny = BUFF(a)\npre = NOT(a)\nff = DFF(pre)\n"
  in
  check_silent "ff fanin live" "dangling-gate" (Structural.check ok)

(* STR004 on a parsed .bench, message for message: the findings were
   recorded when the pack still read a copy of the netlist's nodes. *)
let test_str_dangling_parsed () =
  let nl =
    Bench_io.parse_string ~design_name:"dead"
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\nd1 = NOT(a)\n\
       d2 = OR(d1, b)\n"
  in
  let ds = Structural.check nl in
  Alcotest.(check (list string))
    "findings"
    [
      "STR004@d1: drives no primary output and no flip-flop (dead logic)";
      "STR004@d2: drives no primary output and no flip-flop (dead logic)";
    ]
    (render ds);
  Alcotest.(check string) "report"
    "lint dead:\n\
    \  warning STR004(dangling-gate) at d1: drives no primary output and \
     no flip-flop (dead logic)\n\
    \  warning STR004(dangling-gate) at d2: drives no primary output and \
     no flip-flop (dead logic)\n\
     summary: 0 error(s), 2 warning(s), 0 info\n"
    (D.render_text ~design:"dead" ds)

(* ---------- security rules on corrupted hybrids ---------- *)

(* PI a,b; g = AND(a,b); PO y = g. *)
let tiny_comb () =
  let b = Netlist.Builder.create ~design_name:"tiny" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a; bb |] in
  Netlist.Builder.add_output b "y" g;
  (Netlist.Builder.finalize b, g)

let test_sec_trivial () =
  let nl, g = tiny_comb () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g ] in
  let v = Sec.view ~foundry ~luts:[ g ] () in
  check_fires "PI-fed PO-driving LUT" "trivial-lut" (Sec.run v)

let test_sec_broken_chain () =
  (* two replaced gates on disjoint paths: neither reaches the other *)
  let b = Netlist.Builder.create ~design_name:"split" () in
  let a = Netlist.Builder.add_pi b "a" in
  let c = Netlist.Builder.add_pi b "c" in
  let g1 = Netlist.Builder.add_gate b "g1" Gate_fn.Not [| a |] in
  let g2 = Netlist.Builder.add_gate b "g2" Gate_fn.Not [| c |] in
  Netlist.Builder.add_output b "y1" g1;
  Netlist.Builder.add_output b "y2" g2;
  let nl = Netlist.Builder.finalize b in
  let foundry = Transform.replace_many ~keep_function:false nl [ g1; g2 ] in
  let broken =
    Sec.view ~algorithm:Sec.Dependent ~foundry ~luts:[ g1; g2 ] ()
  in
  check_fires "disjoint LUTs" "broken-chain" (Sec.run broken);
  (* the rule is gated on dependent selection *)
  let ungated = Sec.view ~algorithm:Sec.Independent ~foundry ~luts:[ g1; g2 ] () in
  check_silent "independent not gated" "broken-chain" (Sec.run ungated);
  (* a genuine chain g1 -> g2 is clean *)
  let b = Netlist.Builder.create ~design_name:"chain" () in
  let a = Netlist.Builder.add_pi b "a" in
  let g1 = Netlist.Builder.add_gate b "g1" Gate_fn.Not [| a |] in
  let g2 = Netlist.Builder.add_gate b "g2" Gate_fn.Buf [| g1 |] in
  Netlist.Builder.add_output b "y" g2;
  let nl = Netlist.Builder.finalize b in
  let foundry = Transform.replace_many ~keep_function:false nl [ g1; g2 ] in
  let ok = Sec.view ~algorithm:Sec.Dependent ~foundry ~luts:[ g1; g2 ] () in
  check_silent "chained LUTs" "broken-chain" (Sec.run ok)

let test_sec_missing_neighbour () =
  let nl, g = tiny_comb () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g ] in
  let a = Netlist.find_exn foundry "a" in
  (* the meta claims PI [a] was a replaced neighbourhood gate: it is not
     a LUT slot, so the record is inconsistent with the foundry view *)
  let v =
    Sec.view ~algorithm:Sec.Parametric
      ~meta:{ Sec.usl = []; neighbours = [ a ] }
      ~foundry ~luts:[ g ] ()
  in
  check_fires "neighbour kept as CMOS" "missing-neighbour" (Sec.run v);
  let ok =
    Sec.view ~algorithm:Sec.Parametric
      ~meta:{ Sec.usl = []; neighbours = [ g ] }
      ~foundry ~luts:[ g ] ()
  in
  check_silent "neighbour replaced" "missing-neighbour" (Sec.run ok)

let test_sec_unobservable () =
  (* dead = NOT(a) reaches no PO; replacing it buys nothing *)
  let b = Netlist.Builder.create ~design_name:"dead" () in
  let a = Netlist.Builder.add_pi b "a" in
  let live = Netlist.Builder.add_gate b "live" Gate_fn.Buf [| a |] in
  let dead = Netlist.Builder.add_gate b "dead" Gate_fn.Not [| a |] in
  Netlist.Builder.add_output b "y" live;
  let nl = Netlist.Builder.finalize b in
  let foundry = Transform.replace_many ~keep_function:false nl [ dead ] in
  let v = Sec.view ~foundry ~luts:[ dead ] () in
  check_fires "LUT in dead logic" "unobservable-lut" (Sec.run v);
  let live_foundry = Transform.replace_many ~keep_function:false nl [ live ] in
  let ok = Sec.view ~foundry:live_foundry ~luts:[ live ] () in
  check_silent "LUT on live path" "unobservable-lut" (Sec.run ok)

let test_sec_timing () =
  (* an impossible budget (half the original delay) must always violate;
     with a parametric claim and the LUT on the critical path this is an
     error, otherwise a warning *)
  let b = Netlist.Builder.create ~design_name:"slow" () in
  let a = Netlist.Builder.add_pi b "a" in
  let g1 = Netlist.Builder.add_gate b "g1" Gate_fn.Not [| a |] in
  let g2 = Netlist.Builder.add_gate b "g2" Gate_fn.Not [| g1 |] in
  Netlist.Builder.add_output b "y" g2;
  let nl = Netlist.Builder.finalize b in
  let foundry = Transform.replace_many ~keep_function:false nl [ g2 ] in
  let v =
    Sec.view ~algorithm:Sec.Parametric ~original:nl ~clock_factor:0.5 ~foundry
      ~luts:[ g2 ] ()
  in
  let ds = Sec.run v in
  check_fires "budget blown" "timing-violation" ds;
  Alcotest.(check bool) "error for parametric LUT on path" true
    (List.exists
       (fun d -> d.D.rule = "SEC005" && d.D.severity = D.Error)
       ds);
  let warn =
    Sec.view ~algorithm:Sec.Independent ~original:nl ~clock_factor:0.5 ~foundry
      ~luts:[ g2 ] ()
  in
  Alcotest.(check bool) "warning when not parametric" true
    (List.exists
       (fun d -> d.D.rule = "SEC005" && d.D.severity = D.Warning)
       (Sec.run warn));
  (* a generous budget passes *)
  let ok =
    Sec.view ~algorithm:Sec.Parametric ~original:nl ~clock_factor:100.0 ~foundry
      ~luts:[ g2 ] ()
  in
  check_silent "generous budget" "timing-violation" (Sec.run ok)

let test_sec_config_leak () =
  let nl, g = tiny_comb () in
  (* keep_function:true leaves the secret truth table in the "foundry" view *)
  let leaky = Transform.replace_many ~keep_function:true nl [ g ] in
  let v = Sec.view ~foundry:leaky ~luts:[ g ] () in
  check_fires "configured LUT shipped" "config-leak" (Sec.run v);
  let stripped = Transform.strip_configs leaky in
  let ok = Sec.view ~foundry:stripped ~luts:[ g ] () in
  check_silent "stripped" "config-leak" (Sec.run ok)

let test_sec_not_a_lut () =
  let nl, g = tiny_comb () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g ] in
  let a = Netlist.find_exn foundry "a" in
  let v = Sec.view ~foundry ~luts:[ g; a ] () in
  check_fires "PI listed as missing gate" "not-a-lut" (Sec.run v);
  let oob = Sec.view ~foundry ~luts:[ 999 ] () in
  check_fires "out of range id" "not-a-lut" (Sec.run oob)

(* ---------- semantic rules ---------- *)

let contains hay needle =
  let n = String.length hay and k = String.length needle in
  let rec go i = i + k <= n && (String.sub hay i k = needle || go (i + 1)) in
  go 0

let sem ?luts ?configs ?budget nl = Sem.run (Sem.view ?luts ?configs ?budget nl)

let test_sem_const_net () =
  (* g = AND(a, NOT a) is stuck at 0, but only a semantic analysis can
     see it; o = OR(g, b) keeps the cone alive *)
  let b = Netlist.Builder.create ~design_name:"const" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let na = Netlist.Builder.add_gate b "na" Gate_fn.Not [| a |] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a; na |] in
  let o = Netlist.Builder.add_gate b "o" (Gate_fn.Or 2) [| g; bb |] in
  Netlist.Builder.add_output b "y" o;
  let nl = Netlist.Builder.finalize b in
  let ds = sem nl in
  check_fires "contradiction" "const-net" ds;
  (match List.find_opt (fun d -> d.D.rule = "SEM001") ds with
  | Some d ->
      Alcotest.(check (option string)) "flags g" (Some "g") d.D.node;
      Alcotest.(check bool) "proved by SAT" true (contains d.D.detail "SAT")
  | None -> Alcotest.fail "no SEM001 diagnostic");
  (* a plain AND of two PIs is not constant *)
  let nl, _ = tiny_comb () in
  check_silent "free AND" "const-net" (sem nl)

(* PI a,b; unconfigured LUT l(a,b); m = AND(l, const0); PO y = OR(m, b):
   the constant masks every path from l to the PO *)
let masked_lut () =
  let b = Netlist.Builder.create ~design_name:"masked" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let z = Netlist.Builder.add_const b "z" false in
  let l = Netlist.Builder.add_lut b "l" [| a; bb |] in
  let m = Netlist.Builder.add_gate b "m" (Gate_fn.And 2) [| l; z |] in
  let o = Netlist.Builder.add_gate b "o" (Gate_fn.Or 2) [| m; bb |] in
  Netlist.Builder.add_output b "y" o;
  (Netlist.Builder.finalize b, l)

let test_sem_dead_logic () =
  let nl, _ = masked_lut () in
  let ds = sem nl in
  check_fires "masked LUT" "dead-logic" ds;
  Alcotest.(check bool) "flags l" true
    (List.exists
       (fun d -> d.D.rule = "SEM002" && d.D.node = Some "l")
       ds);
  let nl, _ = tiny_comb () in
  check_silent "live AND" "dead-logic" (sem nl)

let test_sem_key_collapse () =
  let nl, l = masked_lut () in
  let ds = sem ~luts:[ l ] nl in
  check_fires "masked key bits" "key-collapse" ds;
  Alcotest.(check bool) "collapse is an error" true
    (List.exists
       (fun d -> d.D.rule = "SEM003" && d.D.severity = D.Error)
       ds);
  (* an observable LUT keeps its key bits meaningful *)
  let nl, g = tiny_comb () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g ] in
  check_silent "observable LUT" "key-collapse" (sem ~luts:[ g ] foundry)

let test_sem_redundant_node () =
  (* two structurally distinct but equal gates; a buffer alias of one *)
  let b = Netlist.Builder.create ~design_name:"dup" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.Or 2) [| a; bb |] in
  let g2 = Netlist.Builder.add_gate b "g2" (Gate_fn.Or 2) [| bb; a |] in
  let g3 = Netlist.Builder.add_gate b "g3" Gate_fn.Buf [| g1 |] in
  Netlist.Builder.add_output b "y1" g1;
  Netlist.Builder.add_output b "y2" g2;
  Netlist.Builder.add_output b "y3" g3;
  let nl = Netlist.Builder.finalize b in
  let ds = sem nl in
  (match List.find_opt (fun d -> d.D.rule = "SEM004") ds with
  | Some d ->
      Alcotest.(check (option string)) "flags g2" (Some "g2") d.D.node;
      Alcotest.(check bool) "names partner" true (contains d.D.detail "g1")
  | None -> Alcotest.fail "no SEM004 diagnostic");
  (* the buffer alias is definitional, not a semantic discovery *)
  Alcotest.(check bool) "buffer not flagged" false
    (List.exists
       (fun d -> d.D.rule = "SEM004" && d.D.node = Some "g3")
       ds)

let test_sem_const_lut_input () =
  let b = Netlist.Builder.create ~design_name:"clutin" () in
  let a = Netlist.Builder.add_pi b "a" in
  let na = Netlist.Builder.add_gate b "na" Gate_fn.Not [| a |] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a; na |] in
  let l = Netlist.Builder.add_lut b "l" [| a; g |] in
  Netlist.Builder.add_output b "y" l;
  let nl = Netlist.Builder.finalize b in
  let ds = sem nl in
  check_fires "const-fed LUT" "const-lut-input" ds;
  let nl, g = tiny_comb () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g ] in
  check_silent "PI-fed LUT" "const-lut-input" (sem ~luts:[ g ] foundry)

(* chain NOT -> NOT where the first gate also drives its own PO: the
   first is independently resolvable, the second only via closure *)
let not_chain () =
  let b = Netlist.Builder.create ~design_name:"chain2" () in
  let a = Netlist.Builder.add_pi b "a" in
  let g1 = Netlist.Builder.add_gate b "g1" Gate_fn.Not [| a |] in
  let g2 = Netlist.Builder.add_gate b "g2" Gate_fn.Not [| g1 |] in
  Netlist.Builder.add_output b "y1" g1;
  Netlist.Builder.add_output b "y2" g2;
  (Netlist.Builder.finalize b, g1, g2)

let test_sem_eq1_error () =
  (* a single isolated missing gate: Eq. 1 holds verbatim, the
     design-level error fires with a finite clock estimate *)
  let nl, g = tiny_comb () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g ] in
  let ds = sem ~luts:[ g ] foundry in
  (match List.find_opt (fun d -> d.D.rule = "SEM008") ds with
  | Some d ->
      Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
      Alcotest.(check bool) "cites Eq. 1" true (contains d.D.detail "Eq. 1");
      Alcotest.(check bool) "finite estimate" true
        (contains d.D.detail "clocks")
  | None -> Alcotest.fail "no SEM008 on an isolated LUT")

let test_sem_eq1_chain () =
  (* without the bitstream only the PO-driving gate resolves: warnings,
     no error *)
  let nl, g1, g2 = not_chain () in
  let foundry = Transform.replace_many ~keep_function:false nl [ g1; g2 ] in
  let ds = sem ~luts:[ g1; g2 ] foundry in
  Alcotest.(check int) "no errors" 0 (D.errors ds);
  Alcotest.(check bool) "g1 resolvable warning" true
    (List.exists
       (fun d -> d.D.rule = "SEM008" && d.D.node = Some "g1")
       ds);
  Alcotest.(check bool) "g2 not resolvable" false
    (List.exists
       (fun d -> d.D.rule = "SEM008" && d.D.node = Some "g2")
       ds)

let test_sem_eq1_closure () =
  (* with the true bitstream the attacker substitutes g1 and peels g2 in
     round 2 — reported as closure intel, still not the Eq. 1 error *)
  let nl, g1, g2 = not_chain () in
  let configured = Transform.replace_many ~keep_function:true nl [ g1; g2 ] in
  let configs =
    List.filter_map
      (fun l ->
        match Netlist.kind configured l with
        | Netlist.Lut { config = Some c; _ } -> Some (l, c)
        | _ -> None)
      [ g1; g2 ]
  in
  let foundry = Transform.strip_configs configured in
  let ds = sem ~luts:[ g1; g2 ] ~configs foundry in
  Alcotest.(check int) "no errors" 0 (D.errors ds);
  (match
     List.find_opt
       (fun d -> d.D.rule = "SEM008" && d.D.node = Some "g2")
       ds
   with
  | Some d ->
      Alcotest.(check bool) "closure round 2" true
        (contains d.D.detail "round 2")
  | None -> Alcotest.fail "closure did not peel g2")

let test_sem_budget () =
  (* budget 0: any query needing even one conflict is cut off; the pack
     degrades to the SEM006 warning and must claim no error (a tiny
     circuit would solve everything by pure propagation, so use a
     protected 60-gate netlist where real search is required) *)
  let spec =
    {
      Generator.design_name = "budget";
      n_pi = 6;
      n_po = 5;
      n_ff = 4;
      n_gates = 60;
      levels = 6;
    }
  in
  let nl = Generator.generate ~seed:1 spec in
  let r = protect ~seed:1 ~fraction:0.1 (Flow.Independent { count = 3 }) nl in
  let h = r.Flow.hybrid in
  let ds =
    sem
      ~luts:(Sttc_core.Hybrid.lut_ids h)
      ~budget:0
      (Sttc_core.Hybrid.foundry_view h)
  in
  check_fires "cutoffs surface" "sem-budget" ds;
  Alcotest.(check int) "no errors under cutoff" 0 (D.errors ds)

(* brute-force differential check: every SEM001/SEM004 claim on a small
   netlist verified by exhaustive enumeration of the <= 2^12 source
   assignments, and every true constant claimed (completeness) *)
let test_sem_differential () =
  let spec =
    {
      Generator.design_name = "diff";
      n_pi = 8;
      n_po = 5;
      n_ff = 4;
      n_gates = 40;
      levels = 5;
    }
  in
  List.iter
    (fun seed ->
      let nl = Sttc_netlist.Opt.optimize (Generator.generate ~seed spec) in
      let ds = sem nl in
      let n = Netlist.node_count nl in
      let n_pi = List.length (Netlist.pis nl) in
      let n_ff = List.length (Netlist.dffs nl) in
      let total = 1 lsl (n_pi + n_ff) in
      (* enumerate all source assignments in 64-lane batches, collecting
         per-node: the set of values seen *)
      let simr = Sttc_sim.Simulator.create nl in
      let seen0 = Array.make n false and seen1 = Array.make n false in
      let values = Array.make n [] (* per batch, lanes *) in
      let batches = (total + 63) / 64 in
      for batch = 0 to batches - 1 do
        let lane_bits k =
          (* bit [k] of assignment (batch*64 + lane), packed over lanes *)
          let v = ref 0L in
          for lane = 0 to 63 do
            let a = (batch * 64) + lane in
            if a < total && (a lsr k) land 1 = 1 then
              v := Int64.logor !v (Int64.shift_left 1L lane)
          done;
          !v
        in
        let pis = Array.init n_pi lane_bits in
        let state = Array.init n_ff (fun i -> lane_bits (n_pi + i)) in
        Sttc_sim.Simulator.set_state simr state;
        ignore (Sttc_sim.Simulator.eval_comb simr pis);
        let nv = Sttc_sim.Simulator.node_values simr in
        let mask =
          (* only the first [total - batch*64] lanes are real *)
          let live = min 64 (total - (batch * 64)) in
          if live = 64 then -1L
          else Int64.sub (Int64.shift_left 1L live) 1L
        in
        for id = 0 to n - 1 do
          let v = Int64.logand nv.(id) mask in
          if v <> 0L then seen1.(id) <- true;
          if Int64.logand (Int64.lognot nv.(id)) mask <> 0L then
            seen0.(id) <- true;
          values.(id) <- Int64.logand nv.(id) mask :: values.(id)
        done
      done;
      let by_name nm =
        match Netlist.find nl nm with
        | Some id -> id
        | None -> Alcotest.fail ("diagnostic names unknown node " ^ nm)
      in
      List.iter
        (fun d ->
          match (d.D.rule, d.D.node) with
          | "SEM001", Some nm ->
              let id = by_name nm in
              let claimed_one = contains d.D.detail "stuck at 1" in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: %s constant" seed nm)
                true
                (if claimed_one then seen1.(id) && not seen0.(id)
                 else seen0.(id) && not seen1.(id))
          | "SEM004", Some nm ->
              let id = by_name nm in
              (* detail: "SAT-proved equal to <partner> on every ..." *)
              let partner =
                let words = String.split_on_char ' ' d.D.detail in
                let rec after = function
                  | "to" :: p :: _ -> p
                  | _ :: rest -> after rest
                  | [] -> Alcotest.fail "SEM004 detail names no partner"
                in
                after words
              in
              let pid = by_name partner in
              Alcotest.(check bool)
                (Printf.sprintf "seed %d: %s = %s" seed nm partner)
                true
                (List.for_all2 Int64.equal values.(id) values.(pid))
          | _ -> ())
        ds;
      (* completeness: a gate constant across the full enumeration must
         be claimed by SEM001 (small circuit: no budget cutoffs) *)
      for id = 0 to n - 1 do
        let eligible =
          match Netlist.kind nl id with
          | Netlist.Gate _ -> true
          | _ -> false
        in
        if eligible && not (seen0.(id) && seen1.(id)) then
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: constant %s claimed" seed
               (Netlist.name nl id))
            true
            (List.exists
               (fun d ->
                 d.D.rule = "SEM001"
                 && d.D.node = Some (Netlist.name nl id))
               ds)
      done)
    [ 3; 11; 42 ]

(* the ci.sh gate, in-process: at seed 7 on s27, independent selection
   of two gates is Eq. 1-weak (error), the loosened-clock parametric
   closure is not (exit 0 = no errors) *)
let test_sem_s27_gate () =
  let nl = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  let sem_of alg =
    let r = protect ~seed:7 alg nl in
    let h = r.Flow.hybrid in
    sem
      ~luts:(Sttc_core.Hybrid.lut_ids h)
      ~configs:(Sttc_core.Hybrid.bitstream h)
      (Sttc_core.Hybrid.foundry_view h)
  in
  let ind = sem_of (Flow.Independent { count = 2 }) in
  Alcotest.(check bool) "independent trips SEM008" true
    (List.exists
       (fun d -> d.D.rule = "SEM008" && d.D.severity = D.Error)
       ind);
  let par =
    sem_of
      (Flow.Parametric
         { Sttc_core.Algorithms.default_parametric with clock_factor = 2.0 })
  in
  Alcotest.(check int) "parametric passes" 0 (D.errors par);
  (* the same gate through sttc lint --semantic's pipeline: an error on
     the independent weakness, none on the parametric selection *)
  let lint alg =
    match
      Sttc_serve.Handler.lint_diagnostics ~algorithms:[ alg ] ~semantic:true
        ~seed:7 ~rules:[ "SEM003"; "SEM006"; "SEM008" ] ~suppress:[] nl
    with
    | Ok ds -> ds
    | Error m -> Alcotest.failf "lint pipeline failed: %s" m
  in
  Alcotest.(check bool) "pipeline reports the SEM008 error" true
    (List.exists
       (fun d -> d.D.rule = "SEM008" && d.D.severity = D.Error)
       (lint (Flow.Independent { count = 2 })));
  Alcotest.(check int) "parametric pipeline lint-clean" 0
    (D.errors
       (lint
          (Flow.Parametric
             { Sttc_core.Algorithms.default_parametric with clock_factor = 2.0 })))

(* ---------- clean-on-valid-input properties ---------- *)

let gen_spec =
  {
    Generator.design_name = "lintprop";
    n_pi = 6;
    n_po = 5;
    n_ff = 4;
    n_gates = 60;
    levels = 6;
  }

let lint_props =
  let gen_seed = QCheck2.Gen.int_range 0 10_000 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"generator output has no structural errors"
         ~count:30 gen_seed
         (fun seed ->
           let nl = Generator.generate ~seed gen_spec in
           D.errors (Structural.check nl) = 0));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"protect output lints clean for every algorithm" ~count:8
         gen_seed
         (fun seed ->
           let nl = Generator.generate ~seed gen_spec in
           List.for_all
             (fun algorithm ->
               (* Parametric selection can legitimately miss its timing
                  budget on an unlucky seed (the lint flags it as
                  SEC005); every other rule, and for the unconstrained
                  algorithms SEC005 too, must lint clean. *)
               let r = protect ~seed ~fraction:0.1 algorithm nl in
               let security =
                 match algorithm with
                 | Flow.Parametric _ ->
                     D.suppress ~rules:[ "SEC005" ] (Flow.lint_security r)
                 | Flow.Independent _ | Flow.Dependent -> Flow.lint_security r
               in
               D.errors security = 0 && D.errors r.Flow.lint = 0)
             Flow.default_algorithms));
  ]

(* Dataflow's constants, stuck-at candidates and signatures on the s641
   independent hybrid's lint view (paper's master seed), against a scalar
   reference: one Ternary.eval_gate / eval_truth pass per sample, source
   bits drawn pattern by pattern in topological order. *)
let test_sem_dataflow_pinned () =
  let module Ternary = Sttc_logic.Ternary in
  let module Dataflow = Sttc_lint.Dataflow in
  let h =
    (Flow.run ~seed:Sttc_experiments.Runner.master_seed ~policy:Flow.Strict
       (Flow.Independent { count = 5 })
       (Sttc_experiments.Runner.build_circuit "s641"))
      .Flow.accepted.Flow.hybrid
  in
  let view =
    Sem.view ~luts:(Sttc_core.Hybrid.lut_ids h)
      ~configs:(Sttc_core.Hybrid.bitstream h)
      (Sttc_core.Hybrid.foundry_view h)
  in
  let nl = view.Sem.netlist in
  let pass source =
    let v = Array.make (Netlist.node_count nl) Ternary.X in
    Array.iter
      (fun id ->
        let node = Netlist.node nl id in
        let ins () = Array.map (fun s -> v.(s)) node.Netlist.fanins in
        v.(id) <-
          (match node.Netlist.kind with
          | Netlist.Pi | Netlist.Dff -> source ()
          | Netlist.Const b -> Ternary.of_bool b
          | Netlist.Gate fn -> Ternary.eval_gate fn (ins ())
          | Netlist.Lut { config = Some c; _ } -> Ternary.eval_truth c (ins ())
          | Netlist.Lut { config = None; _ } -> Ternary.X))
      (Netlist.topo_order nl);
    v
  in
  let const = pass (fun () -> Ternary.X) in
  let rng = Sttc_util.Rng.make 0xda7a in
  let samples =
    Array.init 24 (fun _ -> pass (fun () -> Ternary.of_bool (Sttc_util.Rng.bool rng)))
  in
  let d = Dataflow.compute nl in
  let pp fmt v =
    Format.pp_print_char fmt
      (match v with Ternary.Zero -> '0' | Ternary.One -> '1' | Ternary.X -> 'X')
  in
  let tv = Alcotest.testable pp Ternary.equal in
  for id = 0 to Netlist.node_count nl - 1 do
    let name = Netlist.name nl id in
    Alcotest.check tv ("const " ^ name) const.(id) (Dataflow.const d id);
    let signature = ref 0 in
    Array.iteri
      (fun p v ->
        let code =
          match v.(id) with Ternary.Zero -> 1 | Ternary.One -> 2 | Ternary.X -> 3
        in
        signature := !signature lor (code lsl (2 * p)))
      samples;
    Alcotest.(check int) ("signature " ^ name) !signature (Dataflow.signature d id);
    let first = samples.(0).(id) in
    let stuck =
      if first <> Ternary.X && Array.for_all (fun v -> Ternary.equal v.(id) first) samples
      then first
      else Ternary.X
    in
    Alcotest.check tv ("stuck " ^ name) stuck (Dataflow.stuck d id)
  done

let () =
  Alcotest.run "sttc_lint"
    [
      ( "diagnostic",
        [
          Alcotest.test_case "basics" `Quick test_diag_basics;
          Alcotest.test_case "baseline" `Quick test_diag_baseline;
          Alcotest.test_case "render" `Quick test_diag_render;
          Alcotest.test_case "catalog" `Quick test_catalog;
        ] );
      ( "structural",
        [
          Alcotest.test_case "comb-loop" `Quick test_str_comb_loop;
          Alcotest.test_case "undriven-net" `Quick test_str_undriven;
          Alcotest.test_case "multi-driver" `Quick test_str_multi_driver;
          Alcotest.test_case "dangling-gate" `Quick test_str_dangling;
          Alcotest.test_case "arity-mismatch" `Quick test_str_arity;
          Alcotest.test_case "duplicate-name" `Quick test_str_duplicate_output;
          Alcotest.test_case "no-output" `Quick test_str_no_output;
          Alcotest.test_case "dangling-gate on a parsed netlist" `Quick
            test_str_dangling_parsed;
        ] );
      ( "security",
        [
          Alcotest.test_case "trivial-lut" `Quick test_sec_trivial;
          Alcotest.test_case "broken-chain" `Quick test_sec_broken_chain;
          Alcotest.test_case "missing-neighbour" `Quick test_sec_missing_neighbour;
          Alcotest.test_case "unobservable-lut" `Quick test_sec_unobservable;
          Alcotest.test_case "timing-violation" `Quick test_sec_timing;
          Alcotest.test_case "config-leak" `Quick test_sec_config_leak;
          Alcotest.test_case "not-a-lut" `Quick test_sec_not_a_lut;
        ] );
      ( "semantic",
        [
          Alcotest.test_case "const-net" `Quick test_sem_const_net;
          Alcotest.test_case "dead-logic" `Quick test_sem_dead_logic;
          Alcotest.test_case "key-collapse" `Quick test_sem_key_collapse;
          Alcotest.test_case "redundant-node" `Quick test_sem_redundant_node;
          Alcotest.test_case "const-lut-input" `Quick test_sem_const_lut_input;
          Alcotest.test_case "eq1-error" `Quick test_sem_eq1_error;
          Alcotest.test_case "eq1-chain" `Quick test_sem_eq1_chain;
          Alcotest.test_case "eq1-closure" `Quick test_sem_eq1_closure;
          Alcotest.test_case "budget" `Quick test_sem_budget;
          Alcotest.test_case "differential" `Slow test_sem_differential;
          Alcotest.test_case "s27-gate" `Slow test_sem_s27_gate;
          Alcotest.test_case "dataflow pinned" `Slow test_sem_dataflow_pinned;
        ] );
      ("properties", lint_props);
    ]
