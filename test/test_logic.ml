(* Tests for Sttc_logic: truth tables, gate functions (incl. the paper's
   similarity/alpha metrics), ternary logic, CNF encodings and the
   CDCL SAT solver, with a DIMACS regression corpus. *)

module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn
module Ternary = Sttc_logic.Ternary
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Rng = Sttc_util.Rng

(* allocate variables up to [n] *)
let reserve cnf n = while Cnf.nvars cnf < n do ignore (Cnf.fresh_var cnf) done

let is_satisfiable cnf =
  match Sat.solve cnf with Sat.Sat _ -> true | Sat.Unsat | Sat.Unknown _ -> false

(* ---------- Truth ---------- *)

let test_truth_create_eval () =
  let and2 = Truth.create ~arity:2 (fun i -> i.(0) && i.(1)) in
  Alcotest.(check string) "and2 table" "0001" (Truth.to_string and2);
  Alcotest.(check bool) "eval 11" true (Truth.eval and2 [| true; true |]);
  Alcotest.(check bool) "eval 10" false (Truth.eval and2 [| true; false |]);
  Alcotest.(check int) "rows" 4 (Truth.rows and2)

let test_truth_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ s) s
        (Truth.to_string (Truth.of_string s)))
    [ "01"; "0110"; "10010110"; "0001" ];
  Alcotest.check_raises "bad length"
    (Invalid_argument "Truth.of_string: length must be a power of two <= 64")
    (fun () -> ignore (Truth.of_string "011"))

let test_truth_agreement () =
  (* the paper's examples: AND2/NOR2 similarity 2, AND2/NAND2 similarity 0 *)
  let tt fn = Gate_fn.truth fn in
  Alcotest.(check int) "and/nor" 2
    (Truth.agreement (tt (Gate_fn.And 2)) (tt (Gate_fn.Nor 2)));
  Alcotest.(check int) "and/nand" 0
    (Truth.agreement (tt (Gate_fn.And 2)) (tt (Gate_fn.Nand 2)));
  Alcotest.(check int) "self" 4
    (Truth.agreement (tt (Gate_fn.And 2)) (tt (Gate_fn.And 2)))

let test_truth_cofactor_support () =
  let and2 = Gate_fn.truth (Gate_fn.And 2) in
  Alcotest.(check bool) "depends 0" true (Truth.depends_on and2 0);
  Alcotest.(check bool) "depends 1" true (Truth.depends_on and2 1);
  (* a LUT ignoring one input does not depend on it *)
  let deg = Truth.create ~arity:2 (fun i -> i.(0)) in
  Alcotest.(check bool) "depends on x0" true (Truth.depends_on deg 0);
  Alcotest.(check bool) "ignores x1" false (Truth.depends_on deg 1);
  Alcotest.check_raises "index"
    (Invalid_argument "Truth.cofactor: index") (fun () ->
      ignore (Truth.depends_on and2 2))

let test_truth_of_bits_validation () =
  Alcotest.check_raises "stray bits"
    (Invalid_argument "Truth.of_bits: bits beyond 2^arity") (fun () ->
      ignore (Truth.of_bits ~arity:2 0x1FL))

let truth_props =
  let gen_table =
    QCheck2.Gen.(
      map2
        (fun arity seed -> Truth.random (Rng.make seed) ~arity)
        (int_range 1 4) int)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"agreement symmetric" ~count:300
         QCheck2.Gen.(pair gen_table gen_table)
         (fun (a, b) ->
           QCheck2.assume (Truth.arity a = Truth.arity b);
           Truth.agreement a b = Truth.agreement b a));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"agreement complement" ~count:300
         QCheck2.Gen.(pair gen_table gen_table)
         (fun (a, b) ->
           QCheck2.assume (Truth.arity a = Truth.arity b);
           let not_b =
             Truth.of_bits ~arity:(Truth.arity b)
               (Int64.logxor (Truth.bits b)
                  (Truth.bits (Truth.const_true ~arity:(Truth.arity b))))
           in
           Truth.agreement a b + Truth.agreement a not_b = Truth.rows a));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"string roundtrip" ~count:300 gen_table
         (fun t -> Truth.equal t (Truth.of_string (Truth.to_string t))));
  ]

(* ---------- Gate_fn ---------- *)

let test_gate_eval () =
  Alcotest.(check bool) "nand" true
    (Gate_fn.eval (Gate_fn.Nand 3) [| true; true; false |]);
  Alcotest.(check bool) "xor odd" true
    (Gate_fn.eval (Gate_fn.Xor 3) [| true; true; true |]);
  Alcotest.(check bool) "xnor" false
    (Gate_fn.eval (Gate_fn.Xnor 2) [| true; false |]);
  Alcotest.(check bool) "not" false (Gate_fn.eval Gate_fn.Not [| true |]);
  Alcotest.(check bool) "buf" true (Gate_fn.eval Gate_fn.Buf [| true |])

let test_gate_bench_names () =
  Alcotest.(check (option string)) "AND" (Some "AND3")
    (Option.map Gate_fn.to_string (Gate_fn.of_bench_name "AND" ~arity:3));
  Alcotest.(check (option string)) "BUFF" (Some "BUF")
    (Option.map Gate_fn.to_string (Gate_fn.of_bench_name "BUFF" ~arity:1));
  Alcotest.(check (option string)) "unknown" None
    (Option.map Gate_fn.to_string (Gate_fn.of_bench_name "MAJ" ~arity:3));
  Alcotest.(check (option string)) "arity 1 AND invalid" None
    (Option.map Gate_fn.to_string (Gate_fn.of_bench_name "AND" ~arity:1))

let test_gate_similarity_metrics () =
  (* paper: AND2 vs NOR2 -> 2, AND2 vs NAND2 -> 0; over the six 2-input
     gates the 15 pairs agree on 24 rows, so alpha = 24/15 + 1 *)
  Alcotest.(check (float 1e-9)) "alpha2" 2.6 (Gate_fn.computed_alpha 2);
  (* the two 1-input gates never agree *)
  Alcotest.(check (float 1e-9)) "alpha1" 1. (Gate_fn.computed_alpha 1)

let test_gate_paper_constants () =
  Alcotest.(check (float 1e-9)) "alpha2" 2.45 (Gate_fn.paper_alpha 2);
  Alcotest.(check (float 1e-9)) "alpha3" 4.2 (Gate_fn.paper_alpha 3);
  Alcotest.(check (float 1e-9)) "alpha4" 7.4 (Gate_fn.paper_alpha 4);
  Alcotest.(check (float 1e-9)) "p2" 2.5 (Gate_fn.paper_p 2);
  Alcotest.(check int) "6 meaningful 2-input gates" 6
    (Gate_fn.candidate_count 2)

let test_gate_validation () =
  Alcotest.check_raises "arity 1 and"
    (Invalid_argument "Gate_fn.validate: arity out of [2, 6]") (fun () ->
      Gate_fn.validate (Gate_fn.And 1));
  Alcotest.check_raises "arity 7"
    (Invalid_argument "Gate_fn.validate: arity out of [2, 6]") (fun () ->
      Gate_fn.validate (Gate_fn.Xor 7))

(* [all] and [index] agree, and the shared tables are the tabulated
   functions; invalid gates keep raising like [validate] *)
let test_gate_tables () =
  Alcotest.(check int) "2 + 6 kinds x 5 arities" 32 (List.length Gate_fn.all);
  List.iteri
    (fun i fn ->
      let name = Gate_fn.to_string fn in
      Alcotest.(check int) (name ^ " index") i (Gate_fn.index fn);
      Alcotest.(check bool) (name ^ " table") true
        (Truth.equal (Gate_fn.truth fn)
           (Truth.create ~arity:(Gate_fn.arity fn) (Gate_fn.eval fn))))
    Gate_fn.all;
  Alcotest.check_raises "index of an invalid gate"
    (Invalid_argument "Gate_fn.validate: arity out of [2, 6]") (fun () ->
      ignore (Gate_fn.index (Gate_fn.Nor 7)));
  Alcotest.(check string) "an invalid gate is still tabulated" "01"
    (Truth.to_string (Gate_fn.truth (Gate_fn.And 1)))

(* ---------- Ternary ---------- *)

let test_ternary_ops () =
  let ev fn ins = Ternary.eval_gate fn ins in
  Alcotest.(check bool) "0 and X = 0" true
    (Ternary.equal (ev (Gate_fn.And 2) [| Ternary.Zero; Ternary.X |]) Ternary.Zero);
  Alcotest.(check bool) "1 and X = X" true
    (Ternary.equal (ev (Gate_fn.And 2) [| Ternary.One; Ternary.X |]) Ternary.X);
  Alcotest.(check bool) "1 or X = 1" true
    (Ternary.equal (ev (Gate_fn.Or 2) [| Ternary.One; Ternary.X |]) Ternary.One);
  Alcotest.(check bool) "X xor 1 = X" true
    (Ternary.equal (ev (Gate_fn.Xor 2) [| Ternary.X; Ternary.One |]) Ternary.X);
  Alcotest.(check bool) "not X = X" true
    (Ternary.equal (ev Gate_fn.Not [| Ternary.X |]) Ternary.X)

let test_ternary_gate_eval () =
  (* controlling values decide outputs despite X *)
  Alcotest.(check bool) "nand with 0 input" true
    (Ternary.equal
       (Ternary.eval_gate (Gate_fn.Nand 2) [| Ternary.Zero; Ternary.X |])
       Ternary.One);
  Alcotest.(check bool) "nor with 1 input" true
    (Ternary.equal
       (Ternary.eval_gate (Gate_fn.Nor 2) [| Ternary.One; Ternary.X |])
       Ternary.Zero);
  Alcotest.(check bool) "and all 1" true
    (Ternary.equal
       (Ternary.eval_gate (Gate_fn.And 2) [| Ternary.One; Ternary.One |])
       Ternary.One)

let test_ternary_truth_eval () =
  let and2 = Gate_fn.truth (Gate_fn.And 2) in
  (* known inputs *)
  Alcotest.(check bool) "known" true
    (Ternary.equal
       (Ternary.eval_truth and2 [| Ternary.One; Ternary.One |])
       Ternary.One);
  (* 0 on an AND forces the output even with X *)
  Alcotest.(check bool) "forced" true
    (Ternary.equal
       (Ternary.eval_truth and2 [| Ternary.Zero; Ternary.X |])
       Ternary.Zero);
  (* X that matters stays X *)
  Alcotest.(check bool) "unknown" true
    (Ternary.equal
       (Ternary.eval_truth and2 [| Ternary.One; Ternary.X |])
       Ternary.X)

let ternary_props =
  let gen_v = QCheck2.Gen.oneofl [ Ternary.Zero; Ternary.One; Ternary.X ] in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"ternary gate agrees with boolean" ~count:500
         QCheck2.Gen.(pair (int_range 0 7) (int_range 0 3))
         (fun (bits, fn_idx) ->
           let fn =
             List.nth
               [ Gate_fn.And 3; Gate_fn.Nand 3; Gate_fn.Or 3; Gate_fn.Xor 3 ]
               fn_idx
           in
           let bools = Array.init 3 (fun k -> (bits lsr k) land 1 = 1) in
           let tern = Array.map Ternary.of_bool bools in
           Ternary.equal
             (Ternary.eval_gate fn tern)
             (Ternary.of_bool (Gate_fn.eval fn bools))));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"ternary monotone wrt X" ~count:500
         QCheck2.Gen.(array_size (return 2) gen_v)
         (fun inputs ->
           (* replacing an input by X can only keep or lose knowledge *)
           let out = Ternary.eval_gate (Gate_fn.And 2) inputs in
           let blurred = [| inputs.(0); Ternary.X |] in
           let out' = Ternary.eval_gate (Gate_fn.And 2) blurred in
           match (out, out') with
           | _, Ternary.X -> true
           | a, b -> Ternary.equal a b));
  ]

(* ---------- Cnf / Sat ---------- *)

let solve_value cnf =
  match Sat.solve cnf with
  | Sat.Sat model -> Some model
  | Sat.Unsat -> None
  | Sat.Unknown r -> Alcotest.failf "unbudgeted solve returned Unknown %s" r

let test_sat_trivial () =
  let cnf = Cnf.create () in
  let a = Cnf.fresh_var cnf in
  Cnf.add_clause cnf [ a ];
  (match solve_value cnf with
  | Some model -> Alcotest.(check bool) "a true" true (Sat.model_value model a)
  | None -> Alcotest.fail "expected sat");
  Cnf.add_clause cnf [ -a ];
  Alcotest.(check bool) "now unsat" false (is_satisfiable cnf)

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: classic small UNSAT instance *)
  let cnf = Cnf.create () in
  let v = Array.init 3 (fun _ -> Array.init 2 (fun _ -> Cnf.fresh_var cnf)) in
  for p = 0 to 2 do
    Cnf.add_clause cnf [ v.(p).(0); v.(p).(1) ]
  done;
  for h = 0 to 1 do
    for p1 = 0 to 2 do
      for p2 = p1 + 1 to 2 do
        Cnf.add_clause cnf [ -v.(p1).(h); -v.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(3,2) unsat" false (is_satisfiable cnf)

let test_sat_assumptions () =
  let cnf = Cnf.create () in
  let a = Cnf.fresh_var cnf and b = Cnf.fresh_var cnf in
  Cnf.add_clause cnf [ a; b ];
  Alcotest.(check bool) "sat under a" true
    (match Sat.Solver.(solve ~assumptions:[ a ] (of_cnf cnf)) with
    | Sat.Sat _ -> true
    | Sat.Unsat | Sat.Unknown _ -> false);
  Cnf.add_clause cnf [ -a ];
  Alcotest.(check bool) "unsat under a" true
    (match Sat.Solver.(solve ~assumptions:[ a ] (of_cnf cnf)) with
    | Sat.Sat _ | Sat.Unknown _ -> false
    | Sat.Unsat -> true);
  Alcotest.(check bool) "still sat without assumption" true
    (is_satisfiable cnf)

let test_sat_gate_encodings () =
  (* every gate encoding agrees with Gate_fn.eval on all input rows *)
  List.iter
    (fun fn ->
      let arity = Gate_fn.arity fn in
      for row = 0 to (1 lsl arity) - 1 do
        let cnf = Cnf.create () in
        let inputs = List.init arity (fun _ -> Cnf.fresh_var cnf) in
        let out = Cnf.fresh_var cnf in
        Cnf.encode_gate cnf out fn inputs;
        List.iteri
          (fun k v ->
            Cnf.add_clause cnf [ (if (row lsr k) land 1 = 1 then v else -v) ])
          inputs;
        let expected =
          Gate_fn.eval fn (Array.init arity (fun k -> (row lsr k) land 1 = 1))
        in
        match solve_value cnf with
        | None -> Alcotest.fail "gate encoding unsat"
        | Some model ->
            Alcotest.(check bool)
              (Printf.sprintf "%s row %d" (Gate_fn.to_string fn) row)
              expected (Sat.model_value model out)
      done)
    [
      Gate_fn.Buf; Gate_fn.Not; Gate_fn.And 2; Gate_fn.Nand 3; Gate_fn.Or 2;
      Gate_fn.Nor 4; Gate_fn.Xor 3; Gate_fn.Xnor 2;
    ]

let test_sat_symbolic_lut () =
  (* a 2-input LUT with symbolic key must be forced to XOR by its I/O *)
  let cnf = Cnf.create () in
  let i0 = Cnf.fresh_var cnf and i1 = Cnf.fresh_var cnf in
  let out = Cnf.fresh_var cnf in
  let key = Array.init 4 (fun _ -> Cnf.fresh_var cnf) in
  Cnf.encode_truth_lut cnf out ~key ~inputs:[| i0; i1 |];
  (* pin row 01 -> out must equal key.(1) *)
  Cnf.add_clause cnf [ i0 ];
  Cnf.add_clause cnf [ -i1 ];
  Cnf.add_clause cnf [ out ];
  (match solve_value cnf with
  | None -> Alcotest.fail "lut encoding unsat"
  | Some model ->
      Alcotest.(check bool) "key row 1 forced true" true
        (Sat.model_value model key.(1)))

(* random 3-CNF generator shared by the direct CDCL properties and the
   incremental-interface properties below *)
let gen_cnf =
  QCheck2.Gen.(
    let* nvars = int_range 3 8 in
    let* nclauses = int_range 3 24 in
    let* seeds = list_size (return (nclauses * 3)) (int_range 0 1_000_000) in
    return (nvars, nclauses, seeds))

let build_cnf (nvars, nclauses, seeds) =
  let cnf = Cnf.create () in
  reserve cnf nvars;
  let seeds = Array.of_list seeds in
  for c = 0 to nclauses - 1 do
    let lit k =
      let s = seeds.((3 * c) + k) in
      let v = (s mod nvars) + 1 in
      if s / nvars mod 2 = 0 then v else -v
    in
    Cnf.add_clause cnf [ lit 0; lit 1; lit 2 ]
  done;
  cnf

let model_satisfies model cnf =
  List.for_all
    (fun clause ->
      Array.exists
        (fun l ->
          if l > 0 then Sat.model_value model l
          else not (Sat.model_value model (-l)))
        clause)
    (List.init (Cnf.nclauses cnf) (Cnf.clause cnf))

let sat_props =
  (* random 3-CNF solved by our CDCL vs brute force *)
  let build = build_cnf in
  let brute_sat cnf =
    let n = Cnf.nvars cnf in
    let clauses = List.init (Cnf.nclauses cnf) (Cnf.clause cnf) in
    let rec try_assign a =
      if a >= 1 lsl n then false
      else
        let value v = (a lsr (v - 1)) land 1 = 1 in
        let ok =
          List.for_all
            (fun clause ->
              Array.exists
                (fun l -> if l > 0 then value l else not (value (-l)))
                clause)
            clauses
        in
        ok || try_assign (a + 1)
    in
    try_assign 0
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"cdcl agrees with brute force" ~count:150
         gen_cnf
         (fun params ->
           let cnf = build params in
           is_satisfiable cnf = brute_sat cnf));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"models really satisfy" ~count:150 gen_cnf
         (fun params ->
           let cnf = build params in
           match Sat.solve cnf with
           | Sat.Unsat -> true
           | Sat.Unknown _ -> false
           | Sat.Sat model -> model_satisfies model cnf));
  ]

(* ---------- incremental interface ---------- *)

(* [solve ~assumptions] on a persistent solver — which keeps learned
   clauses, activities and saved phases from every earlier call — must
   agree with a throwaway solve of the same CNF with the assumptions
   added as unit clauses. *)
let incremental_props =
  let gen =
    QCheck2.Gen.(
      let* params = gen_cnf in
      let* assum_seeds = list_size (return 9) (int_range 0 1_000_000) in
      return (params, assum_seeds))
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make
         ~name:"persistent solve ~assumptions = scratch solve with units"
         ~count:150 gen
         (fun (params, assum_seeds) ->
           let nvars, _, _ = params in
           let cnf = build_cnf params in
           let solver = Sat.Solver.create () in
           Sat.Solver.sync solver cnf;
           let seeds = Array.of_list assum_seeds in
           List.for_all
             (fun round ->
               (* rounds reuse the same solver with 1..3 assumption lits *)
               let assumptions =
                 List.init (round + 1) (fun k ->
                     let s = seeds.((3 * round) + k) in
                     let v = (s mod nvars) + 1 in
                     if s / nvars mod 2 = 0 then v else -v)
               in
               let scratch_cnf = build_cnf params in
               List.iter (fun l -> Cnf.add_clause scratch_cnf [ l ]) assumptions;
               match
                 (Sat.Solver.solve ~assumptions solver, Sat.solve scratch_cnf)
               with
               | Sat.Unsat, Sat.Unsat -> true
               | Sat.Sat model, Sat.Sat _ ->
                   model_satisfies model cnf
                   && List.for_all
                        (fun l ->
                          if l > 0 then Sat.model_value model l
                          else not (Sat.model_value model (-l)))
                        assumptions
               | _ -> false)
             [ 0; 1; 2 ]));
  ]

(* Clause-database reduction must be invisible to callers: a solver
   reused across several solve calls on an instance hard enough to pass
   the reduction limit still returns correct models, and the statistics
   confirm learned clauses really were discarded. *)
let test_sat_reuse_after_reduction () =
  (* deterministic random 3-CNF near the phase transition: hard enough
     for hundreds of conflicts, so Luby restarts and DB reductions fire *)
  let lcg = ref 0x2545F49 in
  let next () =
    lcg := (!lcg * 1103515245) + 12345;
    (!lcg lsr 7) land 0xFFFFFF
  in
  (* one CNF, two faces: a pigeonhole principle PHP(9,8) relaxed by a
     fresh literal [r] (assuming [-r] makes it the classic hard UNSAT
     instance; [r] switches it off), plus a planted-SAT random 3-CNF on
     separate variables for the model-returning calls *)
  let holes = 8 in
  let pigeons = holes + 1 in
  let r = 1 in
  let pvar p h = 2 + (p * holes) + h in
  let base = 1 + (pigeons * holes) in
  let nvars2 = 40 in
  let plant = Array.init (nvars2 + 1) (fun _ -> next () land 1 = 1) in
  let cnf = Cnf.create () in
  reserve cnf (base + nvars2);
  for p = 0 to pigeons - 1 do
    Cnf.add_clause cnf (r :: List.init holes (fun h -> pvar p h))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      for q = p + 1 to pigeons - 1 do
        Cnf.add_clause cnf [ r; -pvar p h; -pvar q h ]
      done
    done
  done;
  for _ = 1 to 160 do
    let lit () =
      let v = (next () mod nvars2) + 1 in
      if next () land 1 = 0 then base + v else -(base + v)
    in
    let sat_under_plant l =
      if l > 0 then plant.(l - base) else not plant.(-l - base)
    in
    let c = [| lit (); lit (); lit () |] in
    if not (Array.exists sat_under_plant c) then begin
      let k = next () mod 3 in
      c.(k) <- -c.(k)
    end;
    Cnf.add_clause cnf (Array.to_list c)
  done;
  let solver = Sat.Solver.of_cnf cnf in
  (* call 1: the hard UNSAT face — thousands of conflicts, so Luby
     restarts and clause-DB reductions fire before it refutes *)
  (match Sat.Solver.solve ~assumptions:[ -r ] solver with
  | Sat.Unsat -> ()
  | Sat.Sat _ -> Alcotest.fail "relaxed pigeonhole: bogus model"
  | Sat.Unknown reason -> Alcotest.failf "pigeonhole call unknown: %s" reason);
  Alcotest.(check bool) "reduction actually fired (removed > 0)" true
    ((Sat.Solver.stats solver).Sat.removed > 0);
  (* calls 2..4: SAT faces on the same solver — the surviving learned
     clauses and rewritten clause DB must still yield correct models *)
  for call = 2 to 4 do
    let v = (call * 13 mod nvars2) + 1 in
    let lit = if plant.(v) then base + v else -(base + v) in
    match Sat.Solver.solve ~assumptions:[ r; lit ] solver with
    | Sat.Sat model ->
        Alcotest.(check bool)
          (Printf.sprintf "call %d model satisfies" call)
          true (model_satisfies model cnf);
        Alcotest.(check bool)
          (Printf.sprintf "call %d assumption honoured" call)
          true
          (if lit > 0 then Sat.model_value model lit
           else not (Sat.model_value model (-lit)))
    | Sat.Unsat -> Alcotest.failf "call %d unexpectedly unsat" call
    | Sat.Unknown reason -> Alcotest.failf "call %d unknown: %s" call reason
  done;
  let stats = Sat.Solver.stats solver in
  Alcotest.(check bool) "solver retained clauses (kept > 0)" true
    (stats.Sat.kept > 0)

(* ---------- DIMACS regression corpus ---------- *)

(* The corpus reader: comments, one "p cnf" line, and 0-terminated
   clauses that may span lines.  A malformed line fails the test. *)
let read_dimacs file text =
  let cnf = Cnf.create () in
  let pending = ref [] in
  List.iteri
    (fun i line ->
      let bad what =
        Alcotest.failf "%s:%d: %s: %S" file (i + 1) what line
      in
      let line = String.trim line in
      let tokens =
        String.split_on_char ' ' line |> List.filter (( <> ) "")
      in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then (
        match tokens with
        | [ "p"; "cnf"; nv; _ ] -> (
            match int_of_string_opt nv with
            | Some n when n >= 0 -> reserve cnf n
            | _ -> bad "bad variable count")
        | _ -> bad "bad problem line")
      else
        List.iter
          (fun tok ->
            match int_of_string_opt tok with
            | None -> bad "bad literal"
            | Some 0 ->
                Cnf.add_clause cnf (List.rev !pending);
                pending := []
            | Some l ->
                reserve cnf (abs l);
                pending := l :: !pending)
          tokens)
    (String.split_on_char '\n' text);
  if !pending <> [] then Alcotest.failf "%s: clause not terminated by 0" file;
  cnf

let test_dimacs_corpus () =
  (* every .cnf under test/dimacs/ declares its expected satisfiability
     in a leading "c expect sat|unsat" comment; parse and solve each *)
  (* the corpus is staged next to the test binary by the dune deps rule;
     resolve it relative to the executable so `dune exec` from the
     project root finds it too *)
  let dir =
    if Sys.file_exists "dimacs" then "dimacs"
    else Filename.concat (Filename.dirname Sys.executable_name) "dimacs"
  in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cnf")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (List.length files >= 5);
  List.iter
    (fun file ->
      let path = Filename.concat dir file in
      let ic = open_in path in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      let expected =
        if String.length text >= 13 && String.sub text 0 13 = "c expect sat\n"
        then true
        else if
          String.length text >= 15 && String.sub text 0 15 = "c expect unsat\n"
        then false
        else Alcotest.failf "%s: missing 'c expect sat|unsat' header" file
      in
      let cnf = read_dimacs file text in
      (match Sat.solve cnf with
      | Sat.Sat model ->
          Alcotest.(check bool) (file ^ ": expected satisfiable") true expected;
          Alcotest.(check bool)
            (file ^ ": model satisfies")
            true
            (model_satisfies model cnf)
      | Sat.Unsat ->
          Alcotest.(check bool) (file ^ ": expected unsat") false expected
      | Sat.Unknown r -> Alcotest.failf "%s: unknown: %s" file r);
      (* same answer through the incremental interface on a reused solver *)
      let solver = Sat.Solver.create () in
      Sat.Solver.sync solver cnf;
      let first = Sat.Solver.solve solver in
      let second = Sat.Solver.solve solver in
      let decided = function
        | Sat.Sat _ -> true
        | Sat.Unsat -> false
        | Sat.Unknown r -> Alcotest.failf "%s: incremental unknown: %s" file r
      in
      Alcotest.(check bool) (file ^ ": incremental agrees") expected
        (decided first);
      Alcotest.(check bool) (file ^ ": repeat solve agrees") expected
        (decided second))
    files

let () =
  Alcotest.run "sttc_logic"
    [
      ( "truth",
        [
          Alcotest.test_case "create/eval" `Quick test_truth_create_eval;
          Alcotest.test_case "string roundtrip" `Quick test_truth_string_roundtrip;
          Alcotest.test_case "agreement (paper examples)" `Quick test_truth_agreement;
          Alcotest.test_case "cofactor/support" `Quick test_truth_cofactor_support;
          Alcotest.test_case "of_bits validation" `Quick test_truth_of_bits_validation;
        ]
        @ truth_props );
      ( "gate_fn",
        [
          Alcotest.test_case "eval" `Quick test_gate_eval;
          Alcotest.test_case "bench names" `Quick test_gate_bench_names;
          Alcotest.test_case "similarity metrics" `Quick test_gate_similarity_metrics;
          Alcotest.test_case "paper constants" `Quick test_gate_paper_constants;
          Alcotest.test_case "validation" `Quick test_gate_validation;
          Alcotest.test_case "shared tables" `Quick test_gate_tables;
        ] );
      ( "ternary",
        [
          Alcotest.test_case "ops" `Quick test_ternary_ops;
          Alcotest.test_case "gate eval" `Quick test_ternary_gate_eval;
          Alcotest.test_case "truth eval" `Quick test_ternary_truth_eval;
        ]
        @ ternary_props );
      ( "sat",
        [
          Alcotest.test_case "trivial" `Quick test_sat_trivial;
          Alcotest.test_case "pigeonhole unsat" `Quick test_sat_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_sat_assumptions;
          Alcotest.test_case "gate encodings" `Quick test_sat_gate_encodings;
          Alcotest.test_case "symbolic LUT" `Quick test_sat_symbolic_lut;
          Alcotest.test_case "reuse across clause-DB reduction" `Quick
            test_sat_reuse_after_reduction;
        ]
        @ sat_props @ incremental_props );
      ( "dimacs",
        [
          Alcotest.test_case "regression corpus" `Quick test_dimacs_corpus;
        ] );
    ]
