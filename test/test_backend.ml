(* Tests for lib/backend: the registry, per-cell keyspace accounting,
   the cross-backend invariants of the flow (selection is a pure
   function of (netlist, algorithm, seed) — never of the cell
   technology), the restricted SAT attacker model, and the [backend]
   field threaded through the Manifest/serve JSON schemas. *)

module Backend = Sttc_backend.Backend
module Flow = Sttc_core.Flow
module Hybrid = Sttc_core.Hybrid
module Netlist = Sttc_netlist.Netlist
module Generator = Sttc_netlist.Generator
module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Lognum = Sttc_util.Lognum
module Sat_attack = Sttc_attack.Sat_attack
module Brute_force = Sttc_attack.Brute_force
module Manifest = Sttc_campaign.Manifest
module Request = Sttc_serve.Request
module Json = Sttc_obs.Json

let tvd = Backend.find_exn "tvd"
let backends = List.map Backend.find_exn (Backend.names ())

let protect ?seed ?backend alg nl =
  (Flow.run ?seed ?backend ~policy:Flow.Strict alg nl).Flow.accepted

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let small_spec =
  {
    Generator.design_name = "bk";
    n_pi = 6;
    n_po = 5;
    n_ff = 4;
    n_gates = 45;
    levels = 5;
  }

let gen_netlist seed = Generator.generate ~seed small_spec
let gen_seed = QCheck2.Gen.int_range 0 100_000
let to_case = QCheck_alcotest.to_alcotest

(* ---------- registry ---------- *)

let test_registry () =
  Alcotest.(check (list string)) "names" [ "stt"; "tvd" ] (Backend.names ());
  (match Backend.find "tvd" with
  | Some b ->
      Alcotest.(check string) "find tvd" "tvd" (Backend.name b);
      Alcotest.(check bool) "tvd is restricted" true
        (b.Backend.candidates <> None)
  | None -> Alcotest.fail "tvd not registered");
  Alcotest.(check bool) "stt is free" true (Backend.stt.Backend.candidates = None);
  Alcotest.(check bool) "unknown name" true (Backend.find "sram" = None);
  match Backend.find_exn "sram" with
  | exception Invalid_argument m ->
      Alcotest.(check bool) "error names the offender" true
        (contains m "sram");
      Alcotest.(check bool) "error lists the registry" true
        (contains m "stt" && contains m "tvd")
  | _ -> Alcotest.fail "find_exn must raise on unknown names"

(* ---------- keyspace accounting ---------- *)

(* An stt cell of arity n is worth 2^2^n configurations; a tvd cell is
   worth exactly its candidate family — and for n >= 2 that family is
   strictly smaller, which is the whole security trade-off. *)
let test_cell_keyspace () =
  for n = 1 to 4 do
    let stt = Backend.cell_keyspace Backend.stt.Backend.candidates ~arity:n in
    let expected = Lognum.pow (Lognum.of_int 2) (1 lsl n) in
    Alcotest.(check bool)
      (Printf.sprintf "stt arity %d = 2^2^%d" n n)
      true
      (Lognum.log10 stt = Lognum.log10 expected);
    let tvd = Backend.cell_keyspace tvd.Backend.candidates ~arity:n in
    let family = Gate_fn.candidate_count n in
    Alcotest.(check bool)
      (Printf.sprintf "tvd arity %d = candidate family" n)
      true
      (Lognum.log10 tvd = Lognum.log10 (Lognum.of_int family));
    Alcotest.(check int)
      (Printf.sprintf "family matches Tvd_lib at arity %d" n)
      family
      (List.length (Sttc_tech.Tvd_lib.candidate_functions n));
    if n >= 2 then
      Alcotest.(check bool)
        (Printf.sprintf "tvd < stt at arity %d" n)
        true
        (Lognum.log10 tvd < Lognum.log10 stt)
  done;
  (* over a hybrid's LUTs: the product of the cell counts, which for a
     free family is exactly 2^(configuration bits) *)
  let h =
    (protect ~seed:4 (Flow.Independent { count = 4 }) (gen_netlist 4))
      .Flow.hybrid
  in
  let foundry = Hybrid.foundry_view h and luts = Hybrid.lut_ids h in
  let arities =
    List.map
      (fun id ->
        match Netlist.kind foundry id with
        | Netlist.Lut { arity; _ } -> arity
        | _ -> Alcotest.fail "not a LUT")
      luts
  in
  List.iter
    (fun b ->
      let family = b.Backend.candidates in
      let product =
        Lognum.prod
          (List.map (fun arity -> Backend.cell_keyspace family ~arity) arities)
      in
      Alcotest.(check (float 1e-9))
        (Backend.name b ^ " search space is the product")
        (Lognum.log10 product)
        (Lognum.log10 (Backend.search_space family foundry luts)))
    backends;
  Alcotest.(check bool) "stt search space = 2^(config bits)" true
    (Lognum.log10 (Backend.search_space None foundry luts)
    = Lognum.log10 (Lognum.pow (Lognum.of_int 2) (Hybrid.bitstream_bits h)))

(* One count: at every arity, the list a restricted family hands the SAT
   attack has no duplicate table and exactly [cell_keyspace] entries, so
   its one-hot key restriction admits exactly that many keys.  A free
   family hands no list: its keys are the raw 2^2^n tables. *)
let test_single_count () =
  let families =
    List.concat_map
      (fun b ->
        List.map (fun n -> (Backend.name b, b.Backend.candidates, n)) [ 1; 2; 3; 4 ])
      backends
    @ [ ("camouflage", Sttc_core.Camouflage.family, 2) ]
  in
  List.iter
    (fun (label, family, arity) ->
      let label = Printf.sprintf "%s arity %d" label arity in
      match family with
      | None ->
          Alcotest.(check bool) (label ^ ": free") true
            (Lognum.log10 (Backend.cell_keyspace family ~arity)
            = Lognum.log10 (Lognum.pow (Lognum.of_int 2) (1 lsl arity)))
      | Some f ->
          let tables = f arity in
          Alcotest.(check int) (label ^ ": no duplicate table")
            (List.length tables)
            (List.length
               (List.sort_uniq compare (List.map Truth.to_string tables)));
          Alcotest.(check bool) (label ^ ": length is the count") true
            (Lognum.log10 (Backend.cell_keyspace family ~arity)
            = Lognum.log10 (Lognum.of_int (List.length tables))))
    families;
  (* and on a hybrid, each LUT's list is its arity's family *)
  let h =
    (protect ~seed:6 (Flow.Independent { count = 4 }) (gen_netlist 6))
      .Flow.hybrid
  in
  let foundry = Hybrid.foundry_view h in
  List.iter
    (fun (id, tables) ->
      match (Netlist.kind foundry id, tvd.Backend.candidates) with
      | Netlist.Lut { arity; _ }, Some f ->
          Alcotest.(check bool) "lut list = family" true (tables = f arity)
      | _ -> Alcotest.fail "tvd lists name LUTs")
    (Backend.sat_candidates tvd.Backend.candidates foundry (Hybrid.lut_ids h))

(* ---------- flow invariants ---------- *)

(* Same netlist, same algorithm, same seed: every backend must pick the
   same gates and store the same truth tables.  Only pricing differs. *)
let prop_selection_backend_independent =
  QCheck2.Test.make ~name:"selection identical across backends" ~count:10
    QCheck2.Gen.(pair gen_seed (int_range 0 2))
    (fun (seed, alg_idx) ->
      let nl = gen_netlist seed in
      let alg = List.nth Flow.default_algorithms alg_idx in
      let per_backend =
        List.map (fun b -> (protect ~seed ~backend:b alg nl).Flow.hybrid)
          backends
      in
      match per_backend with
      | [] -> false
      | first :: rest ->
          List.for_all
            (fun h ->
              Hybrid.lut_ids h = Hybrid.lut_ids first
              && Hybrid.bitstream h = Hybrid.bitstream first)
            rest)

(* The hidden function of every tvd cell must be inside the candidate
   family the attacker is told about — otherwise the restricted CNF
   would exclude the true key and the keyspace accounting would lie. *)
let prop_tvd_secret_in_candidate_family =
  QCheck2.Test.make ~name:"tvd secret within candidate family" ~count:10
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      let r = protect ~seed ~backend:tvd (Flow.Independent { count = 4 }) nl in
      let h = r.Flow.hybrid in
      let foundry = Hybrid.foundry_view h in
      List.for_all
        (fun (id, config) ->
          match Netlist.kind foundry id with
          | Netlist.Lut { arity; _ } -> (
              match tvd.Backend.candidates with
              | Some family -> List.mem config (family arity)
              | None -> false)
          | _ -> false)
        (Hybrid.bitstream h))

(* The SAT attack must recover an oracle-confirmed key under both
   attacker models (free CNF for stt, candidate-restricted for tvd). *)
let prop_sat_breaks_both_backends =
  QCheck2.Test.make ~name:"sat attack oracle-confirmed per backend" ~count:6
    gen_seed
    (fun seed ->
      let nl = gen_netlist seed in
      List.for_all
        (fun backend ->
          let r = protect ~seed ~backend (Flow.Independent { count = 3 }) nl in
          let h = r.Flow.hybrid in
          let candidates =
            Backend.sat_candidates backend.Backend.candidates
              (Hybrid.foundry_view h)
              (Hybrid.lut_ids h)
          in
          match Sat_attack.run ~timeout_s:30. ~candidates h with
          | Sat_attack.Broken b -> Sat_attack.verify_break h b.bitstream
          | Sat_attack.Exhausted _ -> false)
        backends)

(* Brute force searches the family's keyspace: past the cap it reports
   exactly Backend's count, within the cap it recovers an
   oracle-confirmed key after at most that many candidates. *)
let prop_brute_force_counts_family =
  QCheck2.Test.make ~name:"brute force searches the backend keyspace"
    ~count:10
    QCheck2.Gen.(triple gen_seed (int_range 1 3) (int_range 0 14))
    (fun (seed, count, max_bits) ->
      let nl = gen_netlist seed in
      List.for_all
        (fun backend ->
          let r = protect ~seed ~backend (Flow.Independent { count }) nl in
          let h = r.Flow.hybrid in
          let family = backend.Backend.candidates in
          let foundry = Hybrid.foundry_view h and luts = Hybrid.lut_ids h in
          let space = Backend.search_space family foundry luts in
          let candidates = Backend.sat_candidates family foundry luts in
          match Brute_force.run ~max_bits ~candidates h with
          | Brute_force.Infeasible i ->
              Lognum.log10 i.search_space = Lognum.log10 space
              && Lognum.log10 space
                 > Lognum.log10 (Lognum.pow (Lognum.of_int 2) max_bits)
          | Brute_force.Broken b ->
              Sat_attack.verify_break h b.bitstream
              && Lognum.log10 b.candidates_tested <= Lognum.log10 space)
        backends)

let test_stt_sat_candidates_empty () =
  let nl = gen_netlist 3 in
  let r = protect ~seed:3 ~backend:Backend.stt (Flow.Independent { count = 3 }) nl in
  let h = r.Flow.hybrid in
  Alcotest.(check int) "stt imposes no candidate restriction" 0
    (List.length
       (Backend.sat_candidates Backend.stt.Backend.candidates
          (Hybrid.foundry_view h)
          (Hybrid.lut_ids h)))

let test_hardening_requires_free_backend () =
  let nl = gen_netlist 5 in
  let hardening = { Flow.extra_inputs_per_lut = 1; absorb_drivers = false } in
  match
    Flow.run ~seed:1 ~hardening ~backend:tvd ~policy:Flow.Strict
      (Flow.Independent { count = 2 })
      nl
  with
  | exception Invalid_argument m ->
      Alcotest.(check bool) "error names the backend" true (contains m "tvd")
  | _ -> Alcotest.fail "hardening under tvd must be rejected"

(* ---------- JSON threading ---------- *)

(* [m] through a manifest file: the saved JSON and what loads back *)
let saved_manifest m =
  let path = Filename.temp_file "sttc-backend-manifest" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Manifest.save path m;
      (In_channel.with_open_bin path In_channel.input_all, Manifest.load path))

let test_manifest_json () =
  let has_backend_field text =
    match Json.of_string text with
    | Ok (Json.Obj fields) -> List.mem_assoc "backend" fields
    | _ -> Alcotest.fail "expected an object"
  in
  let m backend =
    {
      Manifest.name = "m";
      circuits = [ "s27" ];
      algorithms = Flow.default_algorithms;
      configs = [ Manifest.default_config ];
      seeds = [ 1 ];
      shards = 1;
      timeout_s = None;
      retries = 2;
      heartbeat_timeout_s = 60.;
      attempt_timeout_s = None;
      backend;
    }
  in
  let text, _ = saved_manifest (m "stt") in
  Alcotest.(check bool) "default omits backend" false (has_backend_field text);
  let text, loaded = saved_manifest (m "tvd") in
  Alcotest.(check bool) "non-default emits backend" true
    (has_backend_field text);
  (match loaded with
  | Ok m -> Alcotest.(check string) "round trip" "tvd" m.Manifest.backend
  | Error e -> Alcotest.fail e);
  match saved_manifest (m "sram") with
  | _, Ok _ -> Alcotest.fail "unknown backend must fail validation"
  | _, Error e -> Alcotest.(check bool) "error names it" true (contains e "sram")

let test_request_json () =
  (match Request.of_string {|{"verb":"protect","netlist":"s27"}|} with
  | Ok { payload = Request.Protect p; _ } ->
      Alcotest.(check string) "default backend" "stt" p.Request.backend;
      Alcotest.(check bool) "default render omits backend" false
        (contains
           (Request.to_string { id = None; timeout_s = None; payload = Request.Protect p })
           "backend")
  | Ok _ -> Alcotest.fail "unexpected payload"
  | Error e -> Alcotest.fail e);
  (match
     Request.of_string {|{"verb":"attack","netlist":"s27","backend":"tvd"}|}
   with
  | Ok { payload = Request.Attack a; _ } ->
      Alcotest.(check string) "explicit backend" "tvd" a.Request.backend
  | Ok _ -> Alcotest.fail "unexpected payload"
  | Error e -> Alcotest.fail e);
  match Request.of_string {|{"verb":"protect","netlist":"s27","backend":"sram"}|} with
  | Ok _ -> Alcotest.fail "unknown backend must fail the request parse"
  | Error e -> Alcotest.(check bool) "error names it" true (contains e "sram")

let () =
  Alcotest.run "backend"
    [
      ( "registry",
        [
          Alcotest.test_case "names and lookup" `Quick test_registry;
          Alcotest.test_case "cell keyspace" `Quick test_cell_keyspace;
          Alcotest.test_case "single count" `Quick test_single_count;
        ] );
      ( "flow",
        [
          to_case prop_selection_backend_independent;
          to_case prop_tvd_secret_in_candidate_family;
          Alcotest.test_case "stt candidates empty" `Quick
            test_stt_sat_candidates_empty;
          Alcotest.test_case "hardening needs free backend" `Quick
            test_hardening_requires_free_backend;
        ] );
      ( "attack",
        [
          to_case prop_sat_breaks_both_backends;
          to_case prop_brute_force_counts_family;
        ] );
      ( "json",
        [
          Alcotest.test_case "manifest" `Quick test_manifest_json;
          Alcotest.test_case "serve request" `Quick test_request_json;
        ] );
    ]
