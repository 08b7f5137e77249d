(* Tests for Sttc_netlist: builder/validation, queries, bench IO, Verilog
   output, transforms, the synthetic generator and the ISCAS profiles. *)

module Netlist = Sttc_netlist.Netlist
module Query = Sttc_netlist.Query
module Bench_io = Sttc_netlist.Bench_io
module Verilog_out = Sttc_netlist.Verilog_out
module Transform = Sttc_netlist.Transform
module Generator = Sttc_netlist.Generator
module Profiles = Sttc_netlist.Iscas_profiles
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth

(* A small reference circuit used across the tests:
   PI a,b; g1 = NAND(a,b); ff = DFF(g2); g2 = XOR(g1, ff); PO y = g2. *)
let small_circuit () =
  let b = Netlist.Builder.create ~design_name:"small" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.Nand 2) [| a; bb |] in
  let ff = Netlist.Builder.add_dff_deferred b "ff" in
  let g2 = Netlist.Builder.add_gate b "g2" (Gate_fn.Xor 2) [| g1; ff |] in
  Netlist.Builder.set_dff_input b ff g2;
  Netlist.Builder.add_output b "y" g2;
  Netlist.Builder.finalize b

(* ---------- builder / validation ---------- *)

let test_builder_basic () =
  let nl = small_circuit () in
  Alcotest.(check int) "nodes" 5 (Netlist.node_count nl);
  Alcotest.(check int) "gate count" 2 (Netlist.gate_count nl);
  Alcotest.(check int) "pis" 2 (List.length (Netlist.pis nl));
  Alcotest.(check int) "dffs" 1 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "pos" 1 (List.length (Netlist.pos nl));
  Alcotest.(check string) "find" "g1"
    (Netlist.name nl (Netlist.find_exn nl "g1"))

let test_builder_duplicate_name () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  ignore (Netlist.Builder.add_pi b "a");
  Netlist.Builder.add_output b "y" a;
  (* names are indexed, and so checked, once: by finalize, not the add *)
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Builder: duplicate node name a") (fun () ->
      ignore (Netlist.Builder.finalize b));
  (* 2 x 10^4 names, an index of 2^16 slots *)
  let n = 20_000 in
  let b = Netlist.Builder.create () in
  let ids =
    Array.init n (fun i -> Netlist.Builder.add_pi b ("n" ^ string_of_int i))
  in
  Netlist.Builder.add_output b "y" ids.(0);
  let nl = Netlist.Builder.finalize b in
  Array.iteri
    (fun i id ->
      if Netlist.find_exn nl ("n" ^ string_of_int i) <> id then
        Alcotest.failf "n%d resolves to the wrong id" i)
    ids;
  Alcotest.(check (option int)) "absent name" None (Netlist.find nl "n20000");
  (* the netlist's index is its own *)
  ignore (Netlist.Builder.add_pi b "late");
  Alcotest.(check (option int)) "added after finalize" None
    (Netlist.find nl "late")

(* [find] inverts [name] on every node, and misses an absent name. *)
let check_index what nl =
  Netlist.iter
    (fun id n ->
      if Netlist.find nl n.Netlist.name <> Some id then
        Alcotest.failf "%s: %s does not resolve to %d" what n.Netlist.name id)
    nl;
  Alcotest.(check (option int)) (what ^ " absent name") None
    (Netlist.find nl "no such node")

let test_name_index () =
  List.iter (fun name -> check_index name (Profiles.build_by_name name))
    Profiles.names;
  check_index "slike100000" (Generator.generate_family ~seed:1 ~gates:100_000 ());
  (* 2^17 names fill an index of 2^18 slots to half; one more doubles it *)
  let n = (1 lsl 17) + 1 in
  let b = Netlist.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Netlist.Builder.add_pi b ("n" ^ string_of_int i))
  done;
  Netlist.Builder.add_output b "y" 0;
  check_index "2^17+1 names" (Netlist.Builder.finalize b)

(* Three duplicate pairs among 4096 names: finalize names the duplicate
   with the smallest id, whichever pair that is. *)
let test_name_index_duplicates () =
  let later = [ 1000; 2000; 3000 ] in
  List.iter
    (fun earlier ->
      let b = Netlist.Builder.create () in
      for i = 0 to 4095 do
        let e = List.assoc_opt i (List.combine later earlier) in
        let name = "n" ^ string_of_int (Option.value e ~default:i) in
        ignore (Netlist.Builder.add_pi b name)
      done;
      Netlist.Builder.add_output b "y" 0;
      Alcotest.check_raises "smallest later id"
        (Invalid_argument
           ("Builder: duplicate node name n" ^ string_of_int (List.hd earlier)))
        (fun () -> ignore (Netlist.Builder.finalize b)))
    [ [ 5; 999; 1500 ]; [ 999; 1500; 5 ]; [ 1500; 5; 999 ] ]

(* The name index against a [Hashtbl] model, on names of 1-3 letters
   over "abc" (39 names in all), so home slots collide.  Half the cases
   drop repeated names, so that finalize succeeds. *)
let name_index_prop =
  let letters = [ "a"; "b"; "c" ] in
  let longer names =
    List.concat_map (fun s -> List.map (( ^ ) s) letters) names
  in
  let universe = letters @ longer letters @ longer (longer letters) in
  let gen =
    let open QCheck2.Gen in
    let* names = list_size (int_range 1 45) (oneofl universe)
    and* distinct = bool in
    if not distinct then return names
    else
      let seen = Hashtbl.create 16 in
      return
        (List.filter
           (fun name ->
             (not (Hashtbl.mem seen name)) && (Hashtbl.add seen name (); true))
           names)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"name index agrees with a Hashtbl model"
       ~count:500 ~print:(String.concat ",") gen (fun names ->
         let b = Netlist.Builder.create () in
         List.iter (fun name -> ignore (Netlist.Builder.add_pi b name)) names;
         Netlist.Builder.add_output b "y" 0;
         (* the model: the first id whose name an earlier node holds *)
         let seen = Hashtbl.create 16 in
         let dup =
           List.find_opt
             (fun name ->
               Hashtbl.mem seen name || (Hashtbl.add seen name (); false))
             names
         in
         match (dup, Netlist.Builder.finalize b) with
         | Some name, _ ->
             QCheck2.Test.fail_reportf "finalize accepted duplicate %s" name
         | None, nl ->
             List.iteri
               (fun id name ->
                 if Netlist.find nl name <> Some id then
                   QCheck2.Test.fail_reportf "%s does not resolve to %d" name
                     id)
               names;
             List.for_all
               (fun name ->
                 Hashtbl.mem seen name || Netlist.find nl name = None)
               universe
         | exception Invalid_argument msg -> (
             match dup with
             | Some name -> msg = "Builder: duplicate node name " ^ name
             | None -> QCheck2.Test.fail_reportf "finalize refused: %s" msg)))

(* The add-time rejections, message for message: an invalid function
   first, then the fanin count, then the references. *)
let test_builder_arity_mismatch () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let rejects what msg f =
    Alcotest.check_raises what (Invalid_argument msg) (fun () -> ignore (f ()))
  in
  rejects "arity" "Builder.add_gate: arity mismatch at g" (fun () ->
      Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a |]);
  let bad_fn = "Gate_fn.validate: arity out of [2, 6]" in
  rejects "And 7" bad_fn (fun () ->
      Netlist.Builder.add_gate b "g" (Gate_fn.And 7) [| a; a; a; a; a; a; a |]);
  rejects "Nand 1" bad_fn (fun () ->
      Netlist.Builder.add_gate b "g" (Gate_fn.Nand 1) [| a |]);
  rejects "invalid function before references" bad_fn (fun () ->
      Netlist.Builder.add_gate b "g" (Gate_fn.Nand 1) [| a + 1 |]);
  rejects "arity before references" "Builder.add_gate: arity mismatch at g"
    (fun () -> Netlist.Builder.add_gate b "g" (Gate_fn.Or 3) [| a; a + 1 |]);
  rejects "lut arity" "Builder.add_lut: arity out of range at l" (fun () ->
      Netlist.Builder.add_lut b "l" [||]);
  rejects "lut config before references"
    "Builder.add_lut: config arity mismatch at l" (fun () ->
      Netlist.Builder.add_lut b "l"
        ~config:(Gate_fn.truth (Gate_fn.And 3))
        [| a; a + 1 |]);
  rejects "lut reference" "Builder: undefined node reference in l" (fun () ->
      Netlist.Builder.add_lut b "l" [| a; a + 1 |]);
  (* every rejected add leaves the builder as it was *)
  Alcotest.(check int) "nodes" 1 (Netlist.Builder.node_count b)

let test_builder_unwired_dff () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  ignore (Netlist.Builder.add_dff_deferred b "ff");
  Netlist.Builder.add_output b "y" a;
  Alcotest.check_raises "unwired"
    (Invalid_argument "Builder.finalize: unwired DFF ff") (fun () ->
      ignore (Netlist.Builder.finalize b))

let test_builder_no_outputs () =
  let b = Netlist.Builder.create () in
  ignore (Netlist.Builder.add_pi b "a");
  Alcotest.check_raises "no outputs"
    (Invalid_argument "Builder.finalize: no outputs") (fun () ->
      ignore (Netlist.Builder.finalize b))

let test_builder_duplicate_output () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  Netlist.Builder.add_output b "y" a;
  Alcotest.check_raises "duplicate output"
    (Invalid_argument "Builder: duplicate output name y") (fun () ->
      Netlist.Builder.add_output b "y" a)

(* [with_kinds] re-validates every node it changes: a fanin out of range
   first, then a fanin count the kind does not take. *)
let test_with_kinds_refusals () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let rewire fanins_of =
    Netlist.with_kinds nl (fun id kind fanins ->
        if id = g1 then (kind, fanins_of fanins) else (kind, fanins))
  in
  Alcotest.check_raises "fanin out of range"
    (Invalid_argument "Netlist.with_kinds: fanin out of range at g1")
    (fun () -> ignore (rewire (fun f -> [| f.(0); Netlist.node_count nl |])));
  Alcotest.check_raises "fanin count"
    (Invalid_argument "Netlist.with_kinds: fanin arity mismatch at g1")
    (fun () -> ignore (rewire (fun f -> [| f.(0) |])))

let test_builder_combinational_cycle () =
  (* cycles through DFFs are fine (small_circuit); a pure combinational
     cycle must be rejected: build via with_kinds rewiring *)
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" and g2 = Netlist.find_exn nl "g2" in
  (* rewire g1 to read g2: combinational loop g1 -> g2 -> g1, found as a
     back edge into g1 by the DFS rooted at g1 *)
  Alcotest.check_raises "cycle rejected"
    (Invalid_argument "Netlist.with_kinds: combinational cycle through g1")
    (fun () ->
      ignore
        (Netlist.with_kinds nl (fun id kind fanins ->
             if id = g1 then (kind, [| fanins.(0); g2 |])
             else (kind, fanins))));
  (* the builder cannot close a loop at all: a fanin must already exist
     when its reader is added, so finalize has no cycle to look for *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  Alcotest.check_raises "forward fanin refused"
    (Invalid_argument "Builder: undefined node reference in g") (fun () ->
      ignore (Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a; a + 1 |]))

(* Every builder user stores one shared kind value per gate function. *)
let test_builder_shared_kinds () =
  let two_of fn nl =
    match
      List.filter (fun id -> Netlist.kind nl id = Netlist.Gate fn) (Netlist.gates nl)
    with
    | a :: b :: _ -> (Netlist.kind nl a, Netlist.kind nl b)
    | _ -> Alcotest.failf "fewer than two %s gates" (Gate_fn.to_string fn)
  in
  let shared what (ka, kb) =
    Alcotest.(check bool) (what ^ ": one kind value") true (ka == kb)
  in
  shared "generator"
    (two_of (Gate_fn.Nand 2) (Generator.generate_family ~seed:1 ~gates:1_000 ()));
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" and c = Netlist.Builder.add_pi b "c" in
  let g1 = Netlist.Builder.add_gate b "g1" (Gate_fn.Xor 2) [| a; c |] in
  let g2 = Netlist.Builder.add_gate b "g2" (Gate_fn.Xor 2) [| g1; c |] in
  Netlist.Builder.add_output b "y" g2;
  shared "builder" (two_of (Gate_fn.Xor 2) (Netlist.Builder.finalize b));
  shared "bench_io"
    (two_of (Gate_fn.Nand 2)
       (Bench_io.parse_string
          "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NAND(a, b)\ny = NAND(n, b)\n"))

(* A 10^6-node Buf chain: built forward, the topological order is id
   order; rewired backward (node i reads node i+1), the DFS must go 10^6
   deep and emit the ids in reverse. *)
let test_topo_deep_chain () =
  let n = 1_000_000 in
  let b = Netlist.Builder.create ~design_name:"chain" () in
  let prev = ref (Netlist.Builder.add_pi b "a") in
  for i = 1 to n - 1 do
    prev :=
      Netlist.Builder.add_gate b ("c" ^ string_of_int i) Gate_fn.Buf [| !prev |]
  done;
  Netlist.Builder.add_output b "y" !prev;
  let nl = Netlist.Builder.finalize b in
  Alcotest.(check bool) "forward chain in id order" true
    (Netlist.topo_order nl = Array.init n Fun.id);
  let back =
    Netlist.with_kinds nl (fun id kind fanins ->
        if id = 0 then (kind, fanins)
        else if id = n - 1 then (kind, [| 0 |])
        else (kind, [| id + 1 |]))
  in
  Alcotest.(check bool) "backward chain in reverse id order" true
    (Netlist.topo_order back
    = Array.init n (fun i -> if i = 0 then 0 else n - i))

(* [with_kinds] with fresh fanin arrays takes its full path: the copy
   drops every cache, and its topological order comes from the DFS. *)
let dfs_reference nl = Netlist.with_kinds nl (fun _ k f -> (k, Array.copy f))

let same_caches_as_dfs nl =
  let r = dfs_reference nl in
  Netlist.topo_order nl = Netlist.topo_order r
  && Netlist.program nl = Netlist.program r

(* [Builder.finalize] sets the topological order from the builder's id
   invariant instead of running the DFS; it must be the DFS's order *)
let builder_topo_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"builder topo order and program equal the DFS's"
       ~count:20 (QCheck2.Gen.int_range 0 10_000) (fun seed ->
         let spec =
           {
             Generator.design_name = "prop";
             n_pi = 6;
             n_po = 5;
             n_ff = 6;
             n_gates = 80;
             levels = 7;
           }
         in
         same_caches_as_dfs
           (Generator.generate ~seed { spec with n_ff = 0; n_gates = 40; levels = 10 })
         && same_caches_as_dfs (Generator.generate ~seed spec)
         && List.for_all
              (fun profile ->
                same_caches_as_dfs
                  (Generator.generate_family ~seed ~profile ~gates:1_000 ()))
              Generator.[ Slike; Wide; Deep; Fanout_heavy ]))

let test_fanouts () =
  let nl = small_circuit () in
  let g2 = Netlist.find_exn nl "g2" in
  let ff = Netlist.find_exn nl "ff" in
  Alcotest.(check (list int)) "g2 feeds ff" [ ff ] (Netlist.fanouts nl g2);
  Alcotest.(check int) "fanout degree" 1 (Netlist.fanout_degree nl g2)

let test_topo_order () =
  let nl = small_circuit () in
  let order = Netlist.topo_order nl in
  Alcotest.(check int) "covers all nodes" (Netlist.node_count nl)
    (Array.length order);
  let position = Hashtbl.create 8 in
  Array.iteri (fun i id -> Hashtbl.add position id i) order;
  (* every combinational node comes after its fanins *)
  Netlist.iter
    (fun id node ->
      if Netlist.is_combinational node.Netlist.kind then
        Array.iter
          (fun src ->
            Alcotest.(check bool) "fanin before node" true
              (Hashtbl.find position src < Hashtbl.find position id))
          node.Netlist.fanins)
    nl

(* ---------- queries ---------- *)

let test_query_cones () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" and g2 = Netlist.find_exn nl "g2" in
  let a = Netlist.find_exn nl "a" in
  let cone = Query.fanin_cone nl g2 in
  Alcotest.(check bool) "g1 in cone" true (List.mem g1 cone);
  Alcotest.(check bool) "a in cone" true (List.mem a cone);
  let inputs = Query.cone_inputs nl [ g2 ] in
  Alcotest.(check int) "3 cone inputs (a, b, ff)" 3 (List.length inputs)

let test_query_levels_depth () =
  (* g1 sits at level 1 and g2 at level 2 *)
  Alcotest.(check int) "depth" 2 (Query.depth (small_circuit ()));
  (* a longer stage behind a flip-flop sets the depth; the flip-flop
     restarts the count *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let ff = Netlist.Builder.add_dff_deferred b "ff" in
  let n1 = Netlist.Builder.add_gate b "n1" Gate_fn.Not [| ff |] in
  let n2 = Netlist.Builder.add_gate b "n2" (Gate_fn.And 2) [| n1; a |] in
  let n3 = Netlist.Builder.add_gate b "n3" Gate_fn.Not [| n2 |] in
  Netlist.Builder.set_dff_input b ff n3;
  Netlist.Builder.add_output b "y" n3;
  Alcotest.(check int) "three levels" 3
    (Query.depth (Netlist.Builder.finalize b))

let test_query_reaches () =
  let nl = small_circuit () in
  let a = Netlist.find_exn nl "a" in
  let g2 = Netlist.find_exn nl "g2" in
  let ff = Netlist.find_exn nl "ff" in
  Alcotest.(check bool) "a reaches g2" true (Query.reaches nl a g2);
  Alcotest.(check bool) "a reaches g2 comb" true
    (Query.reaches_combinationally nl a g2);
  (* reaching a flip-flop means reaching its D input, which is a purely
     combinational path; what does NOT exist is a combinational path from
     the flip-flop's own output back to g1's fanin cone sources *)
  Alcotest.(check bool) "g2 reaches ff seq" true (Query.reaches nl g2 ff);
  Alcotest.(check bool) "g2 reaches ff.D combinationally" true
    (Query.reaches_combinationally nl g2 ff);
  let a = Netlist.find_exn nl "a" in
  Alcotest.(check bool) "ff does not reach a" false (Query.reaches nl ff a)

let test_query_seq_depth () =
  let nl = small_circuit () in
  let d = Query.sequential_depth_to_po nl in
  Alcotest.(check int) "g2 drives PO directly" 0 (d.(Netlist.find_exn nl "g2"));
  (* ff feeds g2 which is the PO: no flop crossing needed *)
  Alcotest.(check int) "ff to po" 0 (d.(Netlist.find_exn nl "ff"))

let test_query_connected_pairs () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" and g2 = Netlist.find_exn nl "g2" in
  Alcotest.(check int) "g1 -> g2 only" 1
    (Query.connected_lut_pair_count nl [ g1; g2 ])

(* ---------- bench IO ---------- *)

let bench_text =
  {|# sample
INPUT(a)
INPUT(b)
OUTPUT(y)
n1 = NAND(a, b)
s = DFF(n2)
n2 = XOR(n1, s)
y = BUFF(n2)
|}

let test_bench_parse () =
  let nl = Bench_io.parse_string bench_text in
  Alcotest.(check int) "pis" 2 (List.length (Netlist.pis nl));
  Alcotest.(check int) "dffs" 1 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "gates" 3 (List.length (Netlist.gates nl));
  Alcotest.(check string) "output name" "y" (fst (Netlist.outputs nl).(0))

let test_bench_roundtrip_semantics () =
  let nl = small_circuit () in
  let nl2 = Bench_io.parse_string (Bench_io.to_string nl) in
  (* aliasing may add buffers; functional equivalence must hold *)
  (match Sttc_sim.Equiv.check_sat nl nl2 with
  | Sttc_sim.Equiv.Equivalent -> ()
  | Sttc_sim.Equiv.Different f ->
      Alcotest.fail ("roundtrip differs at " ^ f.Sttc_sim.Equiv.signal)
  | Sttc_sim.Equiv.Inconclusive m -> Alcotest.fail m);
  (* a signal whose name starts with a declaration keyword is assigned,
     not declared *)
  let text =
    {|INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT ( z )
OutputMon = BUFF(b)
input_probe = NOT(a)
y = AND(OutputMon, input_probe)
z = OR(a, OutputMon)
|}
  in
  let nl = Bench_io.parse_string text in
  Alcotest.(check (list string)) "declared inputs" [ "a"; "b" ]
    (List.map (Netlist.name nl) (Netlist.pis nl));
  Alcotest.(check (list string)) "declared outputs" [ "y"; "z" ]
    (Array.to_list (Array.map fst (Netlist.outputs nl)));
  Alcotest.(check int) "keyword-named gates" 4 (Netlist.gate_count nl);
  match
    Sttc_sim.Equiv.check_sat nl (Bench_io.parse_string (Bench_io.to_string nl))
  with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "keyword-named signals do not round-trip"

let test_bench_lut_roundtrip () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let hybrid = Transform.replace_many ~keep_function:true nl [ g1 ] in
  let text = Bench_io.to_string hybrid in
  let nl2 = Bench_io.parse_string text in
  (match Netlist.kind nl2 (Netlist.find_exn nl2 "g1") with
  | Netlist.Lut { config = Some c; _ } ->
      Alcotest.(check string) "config preserved" "1110" (Truth.to_string c)
  | _ -> Alcotest.fail "expected configured LUT");
  (* stripped (missing) LUTs round-trip too *)
  let foundry = Transform.strip_configs hybrid in
  let nl3 = Bench_io.parse_string (Bench_io.to_string foundry) in
  match Netlist.kind nl3 (Netlist.find_exn nl3 "g1") with
  | Netlist.Lut { config = None; _ } -> ()
  | _ -> Alcotest.fail "expected missing LUT"

(* Parsing is the other heavy builder user: a 10^5-gate family reads back
   to the same lines, with every name indexed.  The parser adds nodes in
   its own order, so the lines are compared as sorted lists. *)
let test_bench_parse_at_scale () =
  let nl = Generator.generate_family ~seed:1 ~gates:100_000 () in
  let lines nl =
    List.sort compare (String.split_on_char '\n' (Bench_io.to_string nl))
  in
  let back =
    Bench_io.parse_string ~design_name:(Netlist.design_name nl)
      (Bench_io.to_string nl)
  in
  Alcotest.(check bool) "same lines" true (lines nl = lines back);
  check_index "parsed" back

(* [text] fails to parse with a [Parse_error] at [line] *)
let expect_line text line =
  try
    ignore (Bench_io.parse_string text);
    Alcotest.fail "expected Parse_error"
  with Bench_io.Parse_error (l, _) -> Alcotest.(check int) "error line" line l

let test_bench_errors () =
  let expect_error text =
    try
      ignore (Bench_io.parse_string text);
      false
    with Bench_io.Parse_error _ -> true
  in
  Alcotest.(check bool) "undefined signal" true
    (expect_error "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n");
  Alcotest.(check bool) "unknown gate" true
    (expect_error "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MAJ3(a, b, a)\n");
  Alcotest.(check bool) "combinational cycle" true
    (expect_error "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = OR(a, y)\n");
  (* redefinitions are refused by the parser, at the second definition *)
  expect_line "INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n" 2;
  expect_line "INPUT(a)\nOUTPUT(a)\na = NOT(a)\n" 3;
  expect_line "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n" 4

let test_bench_strict_errors () =
  (* validation failures surface as Parse_error with the offending line *)
  (* duplicate OUTPUT declaration, reported at the second declaration *)
  expect_line "INPUT(a)\nOUTPUT(y)\nOUTPUT(y)\ny = NOT(a)\n" 3;
  (* constants take no arguments *)
  expect_line "INPUT(a)\nOUTPUT(y)\nc = VCC(a)\ny = AND(a, c)\n" 3;
  expect_line "INPUT(a)\nOUTPUT(y)\nc = GND(a)\ny = AND(a, c)\n" 3;
  (* a known gate at an impossible arity names the gate, not "unknown" *)
  (try
     ignore (Bench_io.parse_string "INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n");
     Alcotest.fail "expected Parse_error"
   with Bench_io.Parse_error (l, m) ->
     Alcotest.(check int) "NOT arity line" 3 l;
     Alcotest.(check string) "NOT arity message" "gate NOT cannot take 2 input(s)" m);
  (* builder rejections (LUT arity beyond the technology maximum) are
     wrapped into Parse_error instead of escaping as Invalid_argument *)
  let wide_lut =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\nINPUT(g)\n\
     OUTPUT(y)\ny = LUT(a, b, c, d, e, f, g)\n"
  in
  expect_line wide_lut 9;
  (* no OUTPUT line at all: refused by the reader, at the input's last
     line, not by the builder at line 0 *)
  expect_line "INPUT(a)" 1;
  expect_line "INPUT(a)\nx = NOT(a)\n" 2;
  try
    ignore (Bench_io.parse_string "INPUT(a)\n");
    Alcotest.fail "expected Parse_error"
  with Bench_io.Parse_error (_, m) ->
    Alcotest.(check string) "no output message" "no OUTPUT declaration" m

let test_bench_constants () =
  let nl =
    Bench_io.parse_string "INPUT(a)\nOUTPUT(y)\nc1 = VCC()\ny = AND(a, c1)\n"
  in
  match Netlist.kind nl (Netlist.find_exn nl "c1") with
  | Netlist.Const true -> ()
  | _ -> Alcotest.fail "expected constant true"

(* ---------- Verilog ---------- *)

let test_verilog_output () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let hybrid = Transform.replace_many ~keep_function:true nl [ g1 ] in
  let v = Verilog_out.to_string hybrid in
  let contains needle =
    let n = String.length needle and h = String.length v in
    let rec go i = i + n <= h && (String.sub v i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module small");
  Alcotest.(check bool) "dff cell" true (contains "STT_DFF");
  Alcotest.(check bool) "lut cell" true (contains "STT_LUT");
  Alcotest.(check bool) "config param" true (contains "CONFIG")

(* ---------- transforms ---------- *)

let test_transform_replace_preserves_ids () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let nl2 = Transform.replace_gate_with_lut nl g1 in
  Alcotest.(check int) "same node count" (Netlist.node_count nl)
    (Netlist.node_count nl2);
  Alcotest.(check int) "same id" g1 (Netlist.find_exn nl2 "g1");
  match Netlist.kind nl2 g1 with
  | Netlist.Lut { arity = 2; config = Some c } ->
      Alcotest.(check string) "nand config" "1110" (Truth.to_string c)
  | _ -> Alcotest.fail "expected configured 2-LUT"

let test_transform_missing_gate () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let nl2 = Transform.replace_gate_with_lut ~keep_function:false nl g1 in
  match Netlist.kind nl2 g1 with
  | Netlist.Lut { config = None; _ } -> ()
  | _ -> Alcotest.fail "expected missing gate"

let test_transform_extra_inputs () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let ff = Netlist.find_exn nl "ff" in
  let nl2 = Transform.replace_gate_with_lut ~extra_inputs:[ ff ] nl g1 in
  (match Netlist.kind nl2 g1 with
  | Netlist.Lut { arity = 3; config = Some c } ->
      (* extra input is ignored logically *)
      Alcotest.(check bool) "degenerate in the extra input" true
        (not (Truth.depends_on c 2))
  | _ -> Alcotest.fail "expected 3-LUT");
  (* connecting a downstream signal must be refused (cycle) *)
  let g2 = Netlist.find_exn nl "g2" in
  Alcotest.check_raises "cycle refused"
    (Invalid_argument
       "Transform.replace_gate_with_lut: extra input would create a cycle")
    (fun () -> ignore (Transform.replace_gate_with_lut ~extra_inputs:[ g2 ] nl g1))

let test_transform_program_strip () =
  let nl = small_circuit () in
  let g1 = Netlist.find_exn nl "g1" in
  let hybrid = Transform.replace_many ~keep_function:true nl [ g1 ] in
  let foundry = Transform.strip_configs hybrid in
  (match Netlist.kind foundry g1 with
  | Netlist.Lut { config = None; _ } -> ()
  | _ -> Alcotest.fail "strip failed");
  let programmed =
    Transform.program_luts foundry [ (g1, Truth.of_string "1110") ]
  in
  (match Netlist.kind programmed g1 with
  | Netlist.Lut { config = Some _; _ } -> ()
  | _ -> Alcotest.fail "program failed");
  (* arity mismatch rejected *)
  Alcotest.check_raises "bad config"
    (Invalid_argument "Transform.program_luts: config arity mismatch")
    (fun () ->
      ignore (Transform.program_luts foundry [ (g1, Truth.of_string "01") ]))

let test_transform_absorb_driver () =
  (* y = AND(NAND(a,b), c): absorbing the NAND into the AND yields one
     3-input LUT computing (a NAND b) AND c *)
  let b = Netlist.Builder.create ~design_name:"absorb" () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let c = Netlist.Builder.add_pi b "c" in
  let n1 = Netlist.Builder.add_gate b "n1" (Gate_fn.Nand 2) [| a; bb |] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| n1; c |] in
  Netlist.Builder.add_output b "y" g;
  let nl = Netlist.Builder.finalize b in
  let nl2 = Transform.absorb_driver nl g ~driver:n1 in
  (match Netlist.kind nl2 g with
  | Netlist.Lut { arity = 3; config = Some cfg } ->
      (* rows over [a; b; c] *)
      let expect inputs = (not (inputs.(0) && inputs.(1))) && inputs.(2) in
      for r = 0 to 7 do
        let inputs = Array.init 3 (fun k -> (r lsr k) land 1 = 1) in
        Alcotest.(check bool)
          (Printf.sprintf "row %d" r)
          (expect inputs) (Truth.eval cfg inputs)
      done
  | _ -> Alcotest.fail "expected configured 3-LUT");
  (* function preserved end to end *)
  (match Sttc_sim.Equiv.check_sat nl nl2 with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "absorption changed the function");
  (* absorbable_driver finds n1 *)
  Alcotest.(check (option int)) "absorbable" (Some n1)
    (Transform.absorbable_driver nl g)

let test_transform_absorb_rejections () =
  (* driver with a second fanout must be refused *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let n1 = Netlist.Builder.add_gate b "n1" (Gate_fn.Nand 2) [| a; bb |] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| n1; bb |] in
  let h = Netlist.Builder.add_gate b "h" (Gate_fn.Or 2) [| n1; a |] in
  Netlist.Builder.add_output b "y" g;
  Netlist.Builder.add_output b "z" h;
  let nl = Netlist.Builder.finalize b in
  Alcotest.check_raises "multi-fanout driver"
    (Invalid_argument "Transform.absorb_driver: driver has other fanouts")
    (fun () -> ignore (Transform.absorb_driver nl g ~driver:n1));
  Alcotest.(check (option int)) "no absorbable driver" None
    (Transform.absorbable_driver nl g);
  (* a driver whose only reader is the gate but that also drives a
     primary output must be refused too *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  let bb = Netlist.Builder.add_pi b "b" in
  let n1 = Netlist.Builder.add_gate b "n1" (Gate_fn.Nand 2) [| a; bb |] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| n1; bb |] in
  Netlist.Builder.add_output b "y" g;
  Netlist.Builder.add_output b "z" n1;
  let nl = Netlist.Builder.finalize b in
  Alcotest.check_raises "output driver"
    (Invalid_argument "Transform.absorb_driver: driver drives a primary output")
    (fun () -> ignore (Transform.absorb_driver nl g ~driver:n1));
  Alcotest.(check (option int)) "output driver not absorbable" None
    (Transform.absorbable_driver nl g)

let test_transform_sweep () =
  let b = Netlist.Builder.create ~design_name:"dead" () in
  let a = Netlist.Builder.add_pi b "a" in
  let live = Netlist.Builder.add_gate b "live" Gate_fn.Not [| a |] in
  let dead = Netlist.Builder.add_gate b "dead" Gate_fn.Buf [| a |] in
  let _dead2 = Netlist.Builder.add_gate b "dead2" Gate_fn.Not [| dead |] in
  Netlist.Builder.add_output b "y" live;
  let nl = Netlist.Builder.finalize b in
  let swept, map = Transform.sweep nl in
  Alcotest.(check int) "dead nodes removed" 2 (Netlist.node_count swept);
  Alcotest.(check int) "dead unmapped" (-1) map.(dead);
  Alcotest.(check bool) "live mapped" true (map.(live) >= 0);
  match Sttc_sim.Equiv.check_sat nl swept with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "sweep changed the function"

(* A rewrite that keeps every fanin array and every kind's class
   inherits the warmed parent's caches; any other gets fresh ones. *)
let test_transform_caches () =
  let nl = Generator.generate_family ~seed:3 ~gates:1_000 () in
  Netlist.warm nl;
  let p = Netlist.program nl and order = Netlist.topo_order nl in
  let inherits what child =
    Alcotest.(check bool) (what ^ " shares the program") true
      (Netlist.program child == p);
    Alcotest.(check bool) (what ^ " shares the order") true
      (Netlist.topo_order child == order)
  in
  let fresh parent what child =
    Alcotest.(check bool) (what ^ " has its own program") true
      (Netlist.program child != Netlist.program parent);
    Alcotest.(check bool) (what ^ " caches equal the DFS's") true
      (same_caches_as_dfs child)
  in
  let gates = Array.of_list (Netlist.gates nl) in
  let hybrid =
    Transform.replace_many nl [ gates.(3); gates.(100); gates.(500) ]
  in
  inherits "replace_many" hybrid;
  let foundry = Transform.strip_configs hybrid in
  inherits "strip_configs" foundry;
  inherits "program_luts"
    (Transform.program_luts foundry
       (List.map
          (fun id ->
            match Netlist.kind hybrid id with
            | Netlist.Lut { config = Some c; _ } -> (id, c)
            | _ -> Alcotest.fail "expected a configured LUT")
          (Netlist.luts hybrid)));
  fresh nl "extra inputs"
    (Transform.replace_gate_with_lut
       ~extra_inputs:[ List.hd (Netlist.pis nl) ]
       nl gates.(100));
  (match
     Array.find_map
       (fun g ->
         Option.map (fun d -> (g, d)) (Transform.absorbable_driver nl g))
       gates
   with
  | Some (g, driver) ->
      fresh nl "absorb_driver" (Transform.absorb_driver nl g ~driver)
  | None -> Alcotest.fail "no absorbable driver");
  (* a PI turned constant keeps its (empty) fanin array but becomes an
     instruction of the program *)
  let pi = List.hd (Netlist.pis nl) in
  fresh nl "pi to const"
    (Netlist.with_kinds nl (fun id kind fanins ->
         if id = pi then (Netlist.Const true, fanins) else (kind, fanins)));
  (* constant folding turns a gate into a constant *)
  let b = Netlist.Builder.create ~design_name:"cf" () in
  let a = Netlist.Builder.add_pi b "a" in
  let zero = Netlist.Builder.add_const b "zero" false in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| a; zero |] in
  let h = Netlist.Builder.add_gate b "h" (Gate_fn.Or 2) [| a; g |] in
  Netlist.Builder.add_output b "y" h;
  let cf = Netlist.Builder.finalize b in
  Netlist.warm cf;
  fresh cf "gate to const"
    (Netlist.with_kinds cf (fun id kind fanins ->
         if id = g then (Netlist.Const false, [||]) else (kind, fanins)))

let test_transform_replace_not_a_gate () =
  let nl = small_circuit () in
  let a = Netlist.find_exn nl "a" in
  Alcotest.check_raises "pi refused"
    (Invalid_argument "Transform.replace_gate_with_lut: not a gate") (fun () ->
      ignore (Transform.replace_gate_with_lut nl a))

let test_iscas_data_genuine () =
  (* genuine s27 parses to the published statistics and simulates *)
  let s27 = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  Alcotest.(check int) "s27 pis" 4 (List.length (Netlist.pis s27));
  Alcotest.(check int) "s27 dffs" 3 (List.length (Netlist.dffs s27));
  Alcotest.(check int) "s27 gates" 10 (List.length (Netlist.gates s27));
  Alcotest.(check int) "s27 pos" 1 (Array.length (Netlist.outputs s27));
  let c17 = (List.assoc "c17" Sttc_netlist.Iscas_data.all) () in
  Alcotest.(check int) "c17 gates" 6 (List.length (Netlist.gates c17));
  Alcotest.(check int) "c17 dffs" 0 (List.length (Netlist.dffs c17));
  (* the bench text round-trips semantically *)
  List.iter
    (fun (_, build) ->
      let nl = build () in
      let nl2 = Bench_io.parse_string (Bench_io.to_string nl) in
      match Sttc_sim.Equiv.check_sat nl nl2 with
      | Sttc_sim.Equiv.Equivalent -> ()
      | _ -> Alcotest.fail "genuine netlist roundtrip failed")
    Sttc_netlist.Iscas_data.all

let test_c17_truth () =
  (* c17 outputs have known values: N22 = NAND(N10,N16), spot-check one
     full input row against hand evaluation *)
  let c17 = (List.assoc "c17" Sttc_netlist.Iscas_data.all) () in
  let sim = Sttc_sim.Simulator.create c17 in
  (* all inputs 1: N10 = NAND(1,1)=0, N11=0, N16=NAND(1,0)=1, N19=1,
     N22=NAND(0,1)=1, N23=NAND(1,1)=0 *)
  let outs = Sttc_sim.Simulator.eval_comb sim [| -1L; -1L; -1L; -1L; -1L |] in
  Alcotest.(check int64) "N22" 1L (Int64.logand outs.(0) 1L);
  Alcotest.(check int64) "N23" 0L (Int64.logand outs.(1) 1L)

(* ---------- optimization ---------- *)

let test_opt_const_fold () =
  let b = Netlist.Builder.create ~design_name:"cf" () in
  let a = Netlist.Builder.add_pi b "a" in
  let one = Netlist.Builder.add_const b "one" true in
  let zero = Netlist.Builder.add_const b "zero" false in
  let g_and = Netlist.Builder.add_gate b "g_and" (Gate_fn.And 2) [| a; one |] in
  let g_nand = Netlist.Builder.add_gate b "g_nand" (Gate_fn.Nand 2) [| a; zero |] in
  let g_or = Netlist.Builder.add_gate b "g_or" (Gate_fn.Or 2) [| a; one |] in
  let g_xor = Netlist.Builder.add_gate b "g_xor" (Gate_fn.Xor 2) [| a; one |] in
  Netlist.Builder.add_output b "y1" g_and;
  Netlist.Builder.add_output b "y2" g_nand;
  Netlist.Builder.add_output b "y3" g_or;
  Netlist.Builder.add_output b "y4" g_xor;
  let nl = Netlist.Builder.finalize b in
  let folded = Sttc_netlist.Opt.optimize nl in
  (* AND(a,1) -> BUF(a); NAND(a,0) -> const 1; OR(a,1) -> const 1;
     XOR(a,1) -> NOT(a); the output drivers keep their names *)
  let kind id = Netlist.kind folded (Netlist.find_exn folded (Netlist.name nl id)) in
  (match kind g_and with
  | Netlist.Gate Gate_fn.Buf -> ()
  | _ -> Alcotest.fail "AND(a,1) should fold to BUF");
  (match kind g_nand with
  | Netlist.Const true -> ()
  | _ -> Alcotest.fail "NAND(a,0) should fold to 1");
  (match kind g_or with
  | Netlist.Const true -> ()
  | _ -> Alcotest.fail "OR(a,1) should fold to 1");
  (match kind g_xor with
  | Netlist.Gate Gate_fn.Not -> ()
  | _ -> Alcotest.fail "XOR(a,1) should fold to NOT");
  match Sttc_sim.Equiv.check_sat nl folded with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "constant folding changed the function"

let test_opt_collapse_buffers () =
  let b = Netlist.Builder.create ~design_name:"cb" () in
  let a = Netlist.Builder.add_pi b "a" in
  let b1 = Netlist.Builder.add_gate b "b1" Gate_fn.Buf [| a |] in
  let n1 = Netlist.Builder.add_gate b "n1" Gate_fn.Not [| b1 |] in
  let n2 = Netlist.Builder.add_gate b "n2" Gate_fn.Not [| n1 |] in
  let g = Netlist.Builder.add_gate b "g" (Gate_fn.And 2) [| n2; a |] in
  Netlist.Builder.add_output b "y" g;
  let nl = Netlist.Builder.finalize b in
  let collapsed = Sttc_netlist.Opt.optimize nl in
  (* g's first fanin re-routed through the double inverter to a, and the
     bypassed cells swept *)
  Alcotest.(check int) "rerouted to a"
    (Netlist.find_exn collapsed (Netlist.name nl a))
    (Netlist.fanins collapsed (Netlist.find_exn collapsed (Netlist.name nl g))).(0);
  Alcotest.(check (list string)) "buffer and inverters swept" []
    (List.filter
       (fun name -> Netlist.find collapsed name <> None)
       [ "b1"; "n1"; "n2" ]);
  match Sttc_sim.Equiv.check_sat nl collapsed with
  | Sttc_sim.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "collapse changed the function"

let test_opt_optimize_random_equivalence () =
  for seed = 0 to 4 do
    let nl =
      Generator.generate ~seed
        {
          Generator.design_name = "opt";
          n_pi = 6;
          n_po = 5;
          n_ff = 4;
          n_gates = 60;
          levels = 6;
        }
    in
    let opt = Sttc_netlist.Opt.optimize nl in
    Alcotest.(check bool) "not larger" true
      (Netlist.gate_count opt <= Netlist.gate_count nl);
    match Sttc_sim.Equiv.check_sat nl opt with
    | Sttc_sim.Equiv.Equivalent -> ()
    | Sttc_sim.Equiv.Different f ->
        Alcotest.fail
          (Printf.sprintf "seed %d: optimize differs at %s" seed
             f.Sttc_sim.Equiv.signal)
    | Sttc_sim.Equiv.Inconclusive m -> Alcotest.fail m
  done

(* ---------- profile stats ---------- *)

let test_profile_stats () =
  let nl = small_circuit () in
  let st = Sttc_netlist.Profile_stats.compute nl in
  Alcotest.(check int) "nodes" 5 st.Sttc_netlist.Profile_stats.nodes;
  Alcotest.(check int) "gates" 2 st.Sttc_netlist.Profile_stats.gates;
  Alcotest.(check int) "depth" 2 st.Sttc_netlist.Profile_stats.depth;
  Alcotest.(check (float 1e-9)) "avg fanin" 2.
    st.Sttc_netlist.Profile_stats.avg_fanin;
  Alcotest.(check bool) "mix has NAND" true
    (List.mem_assoc "NAND" st.Sttc_netlist.Profile_stats.gate_mix);
  Alcotest.(check bool) "renders" true
    (String.length (Sttc_netlist.Profile_stats.render st) > 0)

(* ---------- scan chains ---------- *)

let test_scan_insert_functional_mode () =
  let nl = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  let chain = Sttc_netlist.Scan.insert nl in
  let snl = chain.Sttc_netlist.Scan.netlist in
  (* two extra PIs, one extra PO, 3 mux gates per FF + shared inverter *)
  Alcotest.(check int) "pis" (4 + 2) (List.length (Netlist.pis snl));
  Alcotest.(check int) "pos" 2 (Array.length (Netlist.outputs snl));
  Alcotest.(check int) "gates" (10 + (3 * 3) + 1) (List.length (Netlist.gates snl));
  Alcotest.(check int) "shift cycles" 3 (Sttc_netlist.Scan.shift_cycles chain);
  (* functional mode (scan_en = 0) is cycle-exact to the original *)
  let sim0 = Sttc_sim.Simulator.create nl in
  let sim1 = Sttc_sim.Simulator.create snl in
  Sttc_sim.Simulator.reset sim0;
  Sttc_sim.Simulator.reset sim1;
  let rng = Sttc_util.Rng.make 5 in
  for _ = 1 to 24 do
    let pi0 =
      Array.map (fun _ -> Sttc_util.Rng.int64 rng) (Array.of_list (Netlist.pis nl))
    in
    let pi1 = Array.append pi0 [| 0L; 0L |] in
    let o0 = Sttc_sim.Simulator.step sim0 pi0 in
    let o1 = Sttc_sim.Simulator.step sim1 pi1 in
    Array.iteri
      (fun i v -> Alcotest.(check int64) "output lane" v o1.(i))
      o0
  done

let test_scan_shift_loads_state () =
  let nl = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  let chain = Sttc_netlist.Scan.insert nl in
  let snl = chain.Sttc_netlist.Scan.netlist in
  let sim = Sttc_sim.Simulator.create snl in
  let target = [| true; false; true |] in
  Sttc_sim.Simulator.reset sim;
  List.iter
    (fun v ->
      let lanes = Array.map (fun b -> if b then -1L else 0L) v in
      ignore (Sttc_sim.Simulator.step sim lanes))
    (Sttc_netlist.Scan.shift_sequence chain target);
  let st = Sttc_sim.Simulator.state sim in
  let dffs = Netlist.dffs snl in
  List.iteri
    (fun i ff ->
      let pos = ref 0 in
      List.iteri (fun j f -> if f = ff then pos := j) dffs;
      Alcotest.(check int64)
        ("chain position " ^ string_of_int i)
        (if target.(i) then 1L else 0L)
        (Int64.logand st.(!pos) 1L))
    chain.Sttc_netlist.Scan.order

let test_scan_lock_removes_chain () =
  let nl = (List.assoc "s27" Sttc_netlist.Iscas_data.all) () in
  let chain = Sttc_netlist.Scan.insert nl in
  let locked = Sttc_netlist.Scan.lock chain.Sttc_netlist.Scan.netlist in
  let cleaned = Sttc_netlist.Opt.optimize locked in
  (* the mux logic folds away entirely *)
  Alcotest.(check int) "back to 10 gates" 10 (List.length (Netlist.gates cleaned));
  Alcotest.check_raises "lock needs scan_en"
    (Invalid_argument "Scan.lock: no scan_en input") (fun () ->
      ignore (Sttc_netlist.Scan.lock nl))

let test_scan_insert_validation () =
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_pi b "a" in
  Netlist.Builder.add_output b "y" a;
  let comb = Netlist.Builder.finalize b in
  Alcotest.check_raises "no ffs" (Invalid_argument "Scan.insert: no flip-flops")
    (fun () -> ignore (Sttc_netlist.Scan.insert comb))

(* ---------- generator ---------- *)

let test_generator_spec_counts () =
  let spec =
    {
      Generator.design_name = "t";
      n_pi = 9;
      n_po = 7;
      n_ff = 5;
      n_gates = 120;
      levels = 9;
    }
  in
  let nl = Generator.generate ~seed:1 spec in
  Alcotest.(check int) "pis" 9 (List.length (Netlist.pis nl));
  Alcotest.(check int) "outputs" 7 (Array.length (Netlist.outputs nl));
  Alcotest.(check int) "ffs" 5 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "gates" 120 (List.length (Netlist.gates nl));
  Alcotest.(check bool) "depth within levels+1" true
    (Query.depth nl <= 10)

let smoke_spec =
  {
    Generator.design_name = "smoke";
    n_pi = 8;
    n_po = 8;
    n_ff = 6;
    n_gates = 60;
    levels = 6;
  }

let test_generator_determinism () =
  let spec = smoke_spec in
  let a = Bench_io.to_string (Generator.generate ~seed:5 spec) in
  let b = Bench_io.to_string (Generator.generate ~seed:5 spec) in
  Alcotest.(check string) "same seed same circuit" a b;
  let c = Bench_io.to_string (Generator.generate ~seed:6 spec) in
  Alcotest.(check bool) "different seed different circuit" true (a <> c)

let test_generator_validation () =
  Alcotest.check_raises "bad spec"
    (Invalid_argument "Generator: n_pi >= 1 required") (fun () ->
      ignore
        (Generator.generate ~seed:1
           { smoke_spec with Generator.n_pi = 0 }))

(* Generation allocates little beyond the netlist it returns. *)
let test_generator_allocation () =
  let gates = 10_000 in
  let family () = Generator.generate_family ~seed:1 ~gates () in
  ignore (family ());
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (family ()));
  let per_gate = (Gc.minor_words () -. before) /. float_of_int gates in
  if per_gate > 40. then
    Alcotest.failf "%.1f minor words per gate, budget 40" per_gate

(* Names of six digits and more: 2 x 10^5 gates, 5000 PIs, 6666 FFs. *)
let test_generator_large_names () =
  let nl = Generator.generate_family ~seed:1 ~gates:200_000 () in
  List.iter
    (fun name ->
      Alcotest.(check string) name name
        (Netlist.name nl (Netlist.find_exn nl name)))
    [ "g99999"; "g100000"; "g199999"; "pi4999"; "ff6665" ];
  Alcotest.(check (option int)) "g200000" None (Netlist.find nl "g200000")

let test_generator_combinational () =
  let nl =
    Generator.generate ~seed:2
      {
        Generator.design_name = "comb2";
        n_pi = 6;
        n_po = 5;
        n_ff = 0;
        n_gates = 40;
        levels = 10;
      }
  in
  Alcotest.(check int) "no ffs" 0 (List.length (Netlist.dffs nl));
  Alcotest.(check int) "gates" 40 (List.length (Netlist.gates nl))

(* ---------- pinned bytes ---------- *)

(* [Bench_io.to_string] and [topo_order] digests recorded before netlist
   construction was made allocation-lean.  Generation, the builder, the
   topological sort and the writer must keep every byte: the paper twins,
   the scale families and every seeded result downstream depend on them. *)
let topo_digest nl =
  Netlist.topo_order nl |> Array.to_list
  |> List.map string_of_int |> String.concat ","
  |> Digest.string |> Digest.to_hex

let check_pinned (name, bench, topo) nl =
  Alcotest.(check string) (name ^ " .bench digest") bench
    (Digest.to_hex (Digest.string (Bench_io.to_string nl)));
  Alcotest.(check string) (name ^ " topo digest") topo (topo_digest nl)

(* (profile, gates, .bench digest, topo digest) at seed 1 *)
let pinned_families =
  [
    ( Generator.Slike, 1_000,
      "b8e3ed7ac406a60d4190f0340baa172b", "0e39c70b3bd2bc3c7c9ef96d1c9c633c" );
    ( Generator.Wide, 1_000,
      "3fd3c97c82b7378342ebc2a715ade17b", "a432f36736acc2b4dd650e13aeef4c52" );
    ( Generator.Deep, 1_000,
      "31453ab14f25c4a9a94ecf232fec8d47", "a85bc464bfef1557fdbcd4b6b9128900" );
    ( Generator.Fanout_heavy, 1_000,
      "fcefa7d50d5df3ba7d129e6a8ea9f9cb", "0e39c70b3bd2bc3c7c9ef96d1c9c633c" );
    ( Generator.Slike, 10_000,
      "ce0ce897d60c55c9cd1beea1c37f3fd9", "ad5e0f5c55c9674eeb27c5178704360e" );
    ( Generator.Wide, 10_000,
      "2c0b60fca1fb8b9d1c07ec174c73843c", "2487f3e7a4bfae740da2feafe490a8a3" );
    ( Generator.Deep, 10_000,
      "413fdcc2b673e16879c2eb1f0dbc7c39", "c66737f408cf79f8717d30de856dc79d" );
    ( Generator.Fanout_heavy, 10_000,
      "3e76587466d1f984442dbc699f5fff69", "ad5e0f5c55c9674eeb27c5178704360e" );
  ]

let pinned_twins =
  [
    ( "s641", "c9fb8beff7453f7b7d152ce7adbde3ce",
      "52e5cf51a54bf878b7d18262a7571af3" );
    ( "s820", "13f0ca64a63f5bec7e2b795571fb48c8",
      "9a589d63758a69c030815dbaeea045bc" );
    ( "s832", "e6b18ac92ec7671b3a40a02d92c54acb",
      "249a41037aff4916920a12145de58bc8" );
    ( "s953", "5fe0d5f113c346b2f71825826ce6790d",
      "44e4fa48b101f624313007a995214fc2" );
    ( "s1196", "bd06d4314d40e8f11667d9aa93c208fa",
      "5d6a3f180c1f5e13924aeb61f4ff50b2" );
    ( "s1238", "66aa8da0e3060c5a2e32330654fed763",
      "5722a0fd927a351fc0776009432c786d" );
    ( "s1488", "5c3525ff4af7bd51829c50a533ac4ad6",
      "f54ec34776ac9f5ee38608990f99cca5" );
    ( "s5378a", "d8fd905440bfb9f364d715b518af9d2c",
      "b4385efe3c2ed814f35030f012ebb3a0" );
    ( "s9234a", "8a7d0d36915aeca3783152949bc9d1c1",
      "99f88f3b68575e2cbf9d6dbf9130d71c" );
    ( "s13207", "c268317f0f0997296e9e8a2c7450b9df",
      "b6bb5fe87bc1638b391186fa48d96229" );
    ( "s15850a", "301fe8cc4406c645907e728cee658ea5",
      "04df5c461091975a6551a3607ebd0296" );
    ( "s38584", "7ca43bd40ce0c3d8e303c1c297f47369",
      "4dc9340d403dfe6b2882b45241e1b5f9" );
  ]

let pinned_genuine =
  [
    ( "s27", "24b5ed3f688fce1bb8730b2ab2a1e9e6",
      "1d560e80a6b804ef5d4bd9ca0ff1bc30" );
    ( "c17", "f84787e9ff4f7952b22be5aa8632d0a0",
      "3beaa07c71ffbbd70b2b7a083c177d02" );
  ]

let test_pinned_families () =
  List.iter
    (fun (profile, gates, bench, topo) ->
      let nl = Generator.generate_family ~seed:1 ~profile ~gates () in
      check_pinned (Netlist.design_name nl, bench, topo) nl)
    pinned_families

let test_pinned_twins () =
  List.iter
    (fun ((name, _, _) as pin) ->
      check_pinned pin (Profiles.build_by_name name))
    pinned_twins;
  Alcotest.(check (list string)) "every twin pinned" Profiles.names
    (List.map (fun (name, _, _) -> name) pinned_twins)

let test_pinned_genuine () =
  List.iter
    (fun ((name, _, _) as pin) ->
      check_pinned pin ((List.assoc name Sttc_netlist.Iscas_data.all) ()))
    pinned_genuine

(* Specs that reach the generator's fallbacks (empty levels, a late range
   too small for the sinks, one level, no flip-flops, fewer than 64 hub
   candidates) and the specs product code generates, recorded before the
   generator drew from id ranges. *)
let pinned_specs =
  let spec design_name n_pi n_po n_ff n_gates levels =
    { Generator.design_name; n_pi; n_po; n_ff; n_gates; levels }
  in
  let gen ~seed s () = Generator.generate ~seed s in
  [
    ( ("empty-levels", "710ebb768e68ddd7be85b467c2102211",
        "e67c21cf7949b6e96d0f859f300ab924" ),
      gen ~seed:1 (spec "gaps" 4 6 3 5 12) );
    ( ("one-level", "eff94322fb349c64ee4b374ca85e931e",
        "4553df2bdb47d478ce9e911bc2276a8a" ),
      gen ~seed:1 (spec "flat" 6 4 3 20 1) );
    ( ("no-ff", "dedbf01c56683d2c7ff287fa5d5aa6fb",
        "c32f9cabd65b47d607ef671263f90932" ),
      gen ~seed:1 (spec "comb" 8 5 0 50 5) );
    ( ("po-heavy", "b0efce57ba872209f92ffe83d6705760",
        "dc397ba05f98159efa5ac480e869ac0d" ),
      gen ~seed:1 (spec "sinks" 5 40 4 30 4) );
    ( ("fanout100", "c0dc12c48c308cddd7788ba1dc960cbc",
        "d672af26c42292d8652afc502667530b" ),
      fun () ->
        Generator.generate_family ~seed:1 ~profile:Generator.Fanout_heavy
          ~gates:100 () );
    (* [Runner.attack_campaign]'s circuit *)
    ( ("atk80", "4b57d7cf4102f3c530e17c626a60d7a3",
        "f6cc27e7e317fe44f8c3d2ee68da34f4" ),
      gen ~seed:11 (spec "atk80" 10 8 6 80 7) );
    (* the serve-mix ledger workload's inline netlist *)
    ( ("inline40", "162d9bc8d06590676cce21b439f3cadf",
        "a5b6f4f1e2f78d77e9c4fd991e2f84da" ),
      gen ~seed:1 (spec "inline40" 8 6 0 40 5) );
    ( ("comb2", "b52fe85a354c6d3ebcd500d349da0807",
        "43e437d3fb81f9775f6e012e061f0fb0" ),
      gen ~seed:2 (spec "comb2" 6 5 0 40 10) );
  ]

let test_pinned_specs () =
  List.iter (fun (pin, build) -> check_pinned pin (build ())) pinned_specs

(* LUT (configured, unconfigured, widened) and constant lines *)
let test_pinned_writer_kinds () =
  let s641 = Profiles.build_by_name "s641" in
  let g = Array.of_list (Netlist.gates s641) in
  let h = Transform.replace_gate_with_lut s641 g.(0) in
  let h = Transform.replace_gate_with_lut ~keep_function:false h g.(1) in
  let h =
    Transform.replace_gate_with_lut ~extra_inputs:[ List.hd (Netlist.pis s641) ]
      h g.(2)
  in
  check_pinned
    ("s641-hybrid", "4eed4e8b8835a6eca173d800fb655d6b",
     "52e5cf51a54bf878b7d18262a7571af3")
    h;
  check_pinned
    ("consts", "a015bd803269d8522f350c6ff9de0a79",
     "37770ad1bcf26046c97ffab80fefb809")
    (Bench_io.parse_string ~design_name:"consts"
       "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\nk = VCC()\nz = GND()\ny = AND(a, k)\n")

(* The parser's node-id order, pinned before any parser work: a parsed
   netlist's ids come from the parser's own walk over the file, so a
   faster parser must keep that walk or re-pin every output that depends
   on ids.  Two digests per input: the (id, name, kind) list in id order,
   and the writer's text of the parsed netlist. *)
let test_pinned_parse_order () =
  let kind_string = function
    | Netlist.Pi -> "PI"
    | Netlist.Const b -> if b then "VCC" else "GND"
    | Netlist.Gate fn -> Gate_fn.to_string fn
    | Netlist.Lut { arity; config } ->
        Printf.sprintf "LUT%d:%s" arity
          (match config with Some t -> Truth.to_string t | None -> "?")
    | Netlist.Dff -> "DFF"
  in
  let nodes nl =
    List.init (Netlist.node_count nl) (fun id ->
        Printf.sprintf "%d %s %s" id (Netlist.name nl id)
          (kind_string (Netlist.kind nl id)))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  List.iter
    (fun (label, nl, ids, text) ->
      let parsed = Bench_io.parse_string (Bench_io.to_string nl) in
      Alcotest.(check string) (label ^ " parsed ids") ids (nodes parsed);
      Alcotest.(check string) (label ^ " parsed text") text
        (Digest.to_hex (Digest.string (Bench_io.to_string parsed))))
    [
      ( "s1196",
        Profiles.build_by_name "s1196",
        "4bada8b199c64c00ee035c6195237407",
        "60ebd298fdc470f0a0ce3d0e5e526901" );
      ( "slike 1e4",
        Generator.generate_family ~seed:20160605 ~gates:10_000 (),
        "a8a3189ab6b48556d0b3519b88386b6d",
        "7a7037fa553dcf046fb6151c777ecbf8" );
    ]

(* ---------- profiles ---------- *)

let test_profiles_match_paper_sizes () =
  (* Table I's size column *)
  let expect =
    [
      ("s641", 287); ("s820", 289); ("s832", 379); ("s953", 395);
      ("s1196", 508); ("s1238", 529); ("s1488", 657); ("s5378a", 2779);
      ("s9234a", 5597); ("s13207", 7951); ("s15850a", 9772); ("s38584", 19253);
    ]
  in
  List.iter
    (fun (name, size) ->
      let info = Profiles.find_exn name in
      Alcotest.(check int) (name ^ " size") size info.Profiles.n_gates;
      let nl = Profiles.build info in
      Alcotest.(check int)
        (name ^ " generated gates")
        size
        (List.length (Netlist.gates nl)))
    expect

(* ---------- scale families ---------- *)

let profile_names = [ "slike"; "wide"; "deep"; "fanout" ]

let profile name =
  match Generator.profile_of_string name with
  | Ok p -> p
  | Error m -> Alcotest.fail m

let test_family_profiles_generate () =
  (* every profile must yield a valid netlist of exactly the requested
     gate count, deterministically; the bench sweep extends this check
     to 10^6 gates *)
  List.iter
    (fun name ->
      let profile = profile name in
      List.iter
        (fun gates ->
          let nl = Generator.generate_family ~seed:7 ~profile ~gates () in
          Alcotest.(check int)
            (Printf.sprintf "%s/%d gate count" name gates)
            gates
            (List.length (Netlist.gates nl));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d has flip-flops" name gates)
            true
            (Netlist.dffs nl <> []);
          let again = Generator.generate_family ~seed:7 ~profile ~gates () in
          Alcotest.(check string)
            (Printf.sprintf "%s/%d deterministic" name gates)
            (Bench_io.to_string nl) (Bench_io.to_string again))
        [ 1_000; 5_000 ])
    profile_names

let test_family_profile_names () =
  (* a family's design name is its profile's name and its size *)
  List.iter
    (fun name ->
      Alcotest.(check string) "design name" (name ^ "1000")
        (Netlist.design_name
           (Generator.generate_family ~seed:1 ~profile:(profile name)
              ~gates:1_000 ())))
    profile_names;
  Alcotest.(check bool) "s-like" true
    (profile "s-like" = Generator.Slike);
  Alcotest.(check bool) "fanout-heavy" true
    (profile "fanout-heavy" = Generator.Fanout_heavy);
  match Generator.profile_of_string "nope" with
  | Ok _ -> Alcotest.fail "accepted bogus profile"
  | Error _ -> ()

let test_profiles_unknown () =
  Alcotest.(check bool) "find none" true (Profiles.find "s99999" = None);
  Alcotest.check_raises "find_exn"
    (Invalid_argument "Iscas_profiles.find_exn: unknown benchmark s99999")
    (fun () -> ignore (Profiles.find_exn "s99999"))

let netlist_props =
  let gen_seed = QCheck2.Gen.int_range 0 10_000 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"generated netlists validate and roundtrip"
         ~count:30 gen_seed
         (fun seed ->
           let nl =
             Generator.generate ~seed
               {
                 Generator.design_name = "prop";
                 n_pi = 6;
                 n_po = 5;
                 n_ff = 4;
                 n_gates = 50;
                 levels = 6;
               }
           in
           let same nl2 =
             match Sttc_sim.Equiv.check_random ~vectors:512 ~seed:1 nl nl2 with
             | Sttc_sim.Equiv.Equivalent -> true
             | _ -> false
           in
           (* the same netlist with its gates renamed after the
              declaration keywords: gN becomes OutputMonN, input_probeN,
              INPUTN or output_N *)
           let keyword_named =
             let text = Bench_io.to_string nl in
             let out = Buffer.create (String.length text) in
             let tok = Buffer.create 16 in
             let flush () =
               let t = Buffer.contents tok in
               Buffer.clear tok;
               let gate =
                 if String.starts_with ~prefix:"g" t then
                   int_of_string_opt (String.sub t 1 (String.length t - 1))
                 else None
               in
               Buffer.add_string out
                 (match gate with
                 | Some n ->
                     [| "OutputMon"; "input_probe"; "INPUT"; "output_" |].(n mod 4)
                     ^ string_of_int n
                 | None -> t)
             in
             String.iter
               (fun c ->
                 match c with
                 | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char tok c
                 | c ->
                     flush ();
                     Buffer.add_char out c)
               text;
             flush ();
             Buffer.contents out
           in
           same (Bench_io.parse_string (Bench_io.to_string nl))
           && same (Bench_io.parse_string keyword_named)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"replace+program preserves function" ~count:30
         gen_seed
         (fun seed ->
           let nl =
             Generator.generate ~seed
               {
                 Generator.design_name = Printf.sprintf "comb%d" seed;
                 n_pi = 6;
                 n_po = 4;
                 n_ff = 0;
                 n_gates = 30;
                 levels = 7;
               }
           in
           match Netlist.gates nl with
           | [] -> true
           | g :: _ ->
               let nl2 = Transform.replace_gate_with_lut nl g in
               (match Sttc_sim.Equiv.check_sat nl nl2 with
               | Sttc_sim.Equiv.Equivalent -> true
               | _ -> false)));
  ]

let () =
  Alcotest.run "sttc_netlist"
    [
      ( "builder",
        [
          Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "duplicate name" `Quick test_builder_duplicate_name;
          Alcotest.test_case "name index" `Quick test_name_index;
          Alcotest.test_case "name index duplicates" `Quick
            test_name_index_duplicates;
          name_index_prop;
          Alcotest.test_case "arity mismatch" `Quick test_builder_arity_mismatch;
          Alcotest.test_case "unwired dff" `Quick test_builder_unwired_dff;
          Alcotest.test_case "no outputs" `Quick test_builder_no_outputs;
          Alcotest.test_case "duplicate output" `Quick
            test_builder_duplicate_output;
          Alcotest.test_case "with_kinds refusals" `Quick
            test_with_kinds_refusals;
          Alcotest.test_case "combinational cycle" `Quick test_builder_combinational_cycle;
          Alcotest.test_case "shared kinds" `Quick test_builder_shared_kinds;
          Alcotest.test_case "fanouts" `Quick test_fanouts;
          Alcotest.test_case "topo order" `Quick test_topo_order;
          Alcotest.test_case "topo deep chain" `Quick test_topo_deep_chain;
          builder_topo_prop;
        ] );
      ( "query",
        [
          Alcotest.test_case "cones" `Quick test_query_cones;
          Alcotest.test_case "levels/depth" `Quick test_query_levels_depth;
          Alcotest.test_case "reaches" `Quick test_query_reaches;
          Alcotest.test_case "sequential depth" `Quick test_query_seq_depth;
          Alcotest.test_case "connected pairs" `Quick test_query_connected_pairs;
        ] );
      ( "bench_io",
        [
          Alcotest.test_case "parse" `Quick test_bench_parse;
          Alcotest.test_case "roundtrip semantics" `Quick test_bench_roundtrip_semantics;
          Alcotest.test_case "lut roundtrip" `Quick test_bench_lut_roundtrip;
          Alcotest.test_case "errors" `Quick test_bench_errors;
          Alcotest.test_case "strict errors" `Quick test_bench_strict_errors;
          Alcotest.test_case "parse at scale" `Quick test_bench_parse_at_scale;
          Alcotest.test_case "constants" `Quick test_bench_constants;
        ] );
      ("verilog", [ Alcotest.test_case "output" `Quick test_verilog_output ]);
      ( "transform",
        [
          Alcotest.test_case "replace preserves ids" `Quick test_transform_replace_preserves_ids;
          Alcotest.test_case "missing gate" `Quick test_transform_missing_gate;
          Alcotest.test_case "extra inputs" `Quick test_transform_extra_inputs;
          Alcotest.test_case "program/strip" `Quick test_transform_program_strip;
          Alcotest.test_case "not a gate" `Quick test_transform_replace_not_a_gate;
          Alcotest.test_case "absorb driver" `Quick test_transform_absorb_driver;
          Alcotest.test_case "absorb rejections" `Quick test_transform_absorb_rejections;
          Alcotest.test_case "sweep" `Quick test_transform_sweep;
          Alcotest.test_case "with_kinds caches" `Quick test_transform_caches;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "families" `Quick test_pinned_families;
          Alcotest.test_case "iscas twins" `Quick test_pinned_twins;
          Alcotest.test_case "genuine iscas" `Quick test_pinned_genuine;
          Alcotest.test_case "fallback and product specs" `Quick
            test_pinned_specs;
          Alcotest.test_case "writer kinds" `Quick test_pinned_writer_kinds;
          Alcotest.test_case "parser id order" `Quick test_pinned_parse_order;
        ] );
      ( "iscas_data",
        [
          Alcotest.test_case "genuine benchmarks" `Quick test_iscas_data_genuine;
          Alcotest.test_case "c17 truth" `Quick test_c17_truth;
        ] );
      ( "opt",
        [
          Alcotest.test_case "const fold" `Quick test_opt_const_fold;
          Alcotest.test_case "collapse buffers" `Quick test_opt_collapse_buffers;
          Alcotest.test_case "optimize equivalence" `Quick
            test_opt_optimize_random_equivalence;
        ] );
      ( "profile_stats",
        [ Alcotest.test_case "compute/render" `Quick test_profile_stats ] );
      ( "scan",
        [
          Alcotest.test_case "functional mode" `Quick test_scan_insert_functional_mode;
          Alcotest.test_case "shift loads state" `Quick test_scan_shift_loads_state;
          Alcotest.test_case "lock removes chain" `Quick test_scan_lock_removes_chain;
          Alcotest.test_case "validation" `Quick test_scan_insert_validation;
        ] );
      ( "generator",
        [
          Alcotest.test_case "spec counts" `Quick test_generator_spec_counts;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "validation" `Quick test_generator_validation;
          Alcotest.test_case "combinational" `Quick test_generator_combinational;
          Alcotest.test_case "allocation budget" `Quick test_generator_allocation;
          Alcotest.test_case "large names" `Quick test_generator_large_names;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "paper sizes" `Quick test_profiles_match_paper_sizes;
          Alcotest.test_case "unknown" `Quick test_profiles_unknown;
        ] );
      ( "families",
        [
          Alcotest.test_case "profiles generate" `Quick
            test_family_profiles_generate;
          Alcotest.test_case "profile names" `Quick test_family_profile_names;
        ] );
      ("properties", netlist_props);
    ]
