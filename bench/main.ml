(* Benchmark records that no ledger workload (bench/ledger) covers yet:
   the serial-vs-parallel Table I speedup, the 10^3..10^6-gate scale
   sweep and the cross-technology backend sweep.  Each section checks
   its own identity contract and rewrites its BENCH_*.json in the
   current directory.  The paper's tables and figures are `sttc`
   subcommands (fig1, table1, table2, fig3, attacks, ...).

   Usage:
     dune exec bench/main.exe                   # every section
     dune exec bench/main.exe -- -j 2 parallel  # 1 vs 2 workers, full table
     STTC_SCALE_SIZES=1000,10000 dune exec bench/main.exe -- scale
     dune exec bench/main.exe -- backend *)

module Runner = Sttc_experiments.Runner
module Flow = Sttc_core.Flow

let protect_strict ?backend ~seed alg nl =
  (Flow.run ~seed ?backend ~policy:Flow.Strict alg nl).Flow.accepted

let section title =
  Printf.printf
    "\n==============================================\n%s\n==============================================\n%!"
    title

let time = Sttc_util.Timing.time

(* ---------- serial vs parallel speedup record ---------- *)

(* Times the full Table I sweep (12 twins x 3 algorithms, a bag large
   enough to fan out) at one worker and at [jobs] workers, alternating
   the two for [repeats] rounds, checks the tables are byte-identical
   (the Pool determinism contract), and leaves the medians and spread in
   BENCH_parallel.json.  With fewer than two workers there is nothing to
   compare, so it exits 64 without writing the file. *)
let parallel ~jobs () =
  let jobs = if jobs > 1 then jobs else Sttc_util.Pool.default_jobs () in
  if jobs < 2 then begin
    prerr_endline
      "bench: parallel needs at least two workers (-j N with N >= 2); \
       BENCH_parallel.json left unchanged";
    exit 64
  end;
  let repeats = 5 in
  section
    (Printf.sprintf
       "Parallel speedup - full Table I rows, 1 vs %d workers, %d rounds" jobs
       repeats);
  let run j =
    let rows, t =
      time (fun () -> Runner.rows Runner.Config.(with_jobs j default))
    in
    (Runner.table1 rows, t)
  in
  let rounds = List.init repeats (fun _ -> (run 1, run jobs)) in
  let reference = fst (fst (List.hd rounds)) in
  let identical =
    List.for_all
      (fun ((s, _), (p, _)) -> s = reference && p = reference)
      rounds
  in
  let median xs =
    let a = Array.of_list (List.sort compare xs) in
    a.(Array.length a / 2)
  in
  let serial = List.map (fun ((_, t), _) -> t) rounds in
  let par = List.map (fun (_, (_, t)) -> t) rounds in
  let serial_s = median serial and parallel_s = median par in
  let speedup = serial_s /. parallel_s in
  Printf.printf
    "  median serial %.2fs, %d workers %.2fs -> %.2fx; rows identical: %b\n"
    serial_s jobs parallel_s speedup identical;
  let module J = Sttc_obs.Json in
  let ms t = J.Float (Float.round (t *. 1000.) /. 1000.) in
  let times xs = J.List (List.map ms xs) in
  Sttc_obs.Export.write_file "BENCH_parallel.json"
    (J.Obj
       ([
          ("experiment", J.String "table1-full");
          ("cores", J.Int (Domain.recommended_domain_count ()));
          ("jobs", J.Int jobs);
          ("repeats", J.Int repeats);
          ("serial_s", ms serial_s);
          ("parallel_s", ms parallel_s);
          ("speedup", ms speedup);
          ("serial_runs_s", times serial);
          ("parallel_runs_s", times par);
          ("rows_identical", J.Bool identical);
        ]
       @ Sttc_obs.Build_info.to_fields ()));
  Printf.printf "  wrote BENCH_parallel.json\n";
  if not identical then begin
    Printf.printf "parallel rows DIFFER from serial rows\n";
    exit 1
  end

(* ---------- scale families: incremental timing record ---------- *)

(* Sweeps the s-like scale family from 10^3 to 10^6 gates.  Per size it
   times generation, one full STA, and the protect flow.  The
   per-candidate cost is also measured directly — K speculative
   gate->LUT evaluations through one Sta.trial session against K
   from-scratch analyses of the same modified netlists, with the delays
   asserted equal — and everything lands in BENCH_scale.json.
   Override the size list with STTC_SCALE_SIZES=1000,10000 for a quick
   pass (tools/ci.sh does). *)
let scale_bench () =
  section "Scale families - incremental timing";
  let module J = Sttc_obs.Json in
  let module Metrics = Sttc_obs.Metrics in
  let module Gen = Sttc_netlist.Generator in
  let module Netlist = Sttc_netlist.Netlist in
  let module Transform = Sttc_netlist.Transform in
  let module Sta = Sttc_analysis.Sta in
  let lib = Sttc_tech.Library.cmos90 in
  let sizes =
    match Sys.getenv_opt "STTC_SCALE_SIZES" with
    | None | Some "" -> [ 1_000; 10_000; 50_000; 100_000; 1_000_000 ]
    | Some s ->
        List.filter_map
          (fun tok ->
            let tok = String.trim tok in
            if tok = "" then None
            else
              match int_of_string_opt tok with
              | Some v when v >= 8 -> Some v
              | _ ->
                  failwith ("STTC_SCALE_SIZES: bad gate count '" ^ tok ^ "'"))
          (String.split_on_char ',' s)
  in
  (* a tight clock budget keeps the repair loop busy, which is exactly
     the hot path the incremental engine exists for; n_paths keeps the
     paper default (gates/1500), so candidate counts grow with size *)
  let algorithm =
    Flow.Parametric
      {
        Sttc_core.Algorithms.default_parametric with
        Sttc_core.Algorithms.clock_factor = 1.02;
      }
  in
  let peak_rss_kb () =
    (* VmHWM of /proc/self/status — the process high-water mark, hence
       monotonic across the sweep; 0 where procfs is unavailable *)
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec go () =
            match In_channel.input_line ic with
            | None -> 0
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf
                  (String.sub line 6 (String.length line - 6))
                  " %d" Fun.id
            | Some _ -> go ()
          in
          go ())
    with _ -> 0
  in
  let cone_stats snap =
    match Metrics.find snap "sta.retime.cone_nodes" with
    | Some (Metrics.Histogram s) -> (s.Metrics.count, s.Metrics.sum)
    | _ -> (0, 0.)
  in
  (* K single-gate speculative evaluations through one trial session
     (replace, read, restore) against a from-scratch analysis of the
     identical modified netlist *)
  let candidate_speedup nl sta =
    let rng = Sttc_util.Rng.make 42 in
    let gates =
      Array.of_seq
        (Seq.filter
           (fun id ->
             match Netlist.kind nl id with
             | Netlist.Gate _ -> true
             | _ -> false)
           (Seq.init (Netlist.node_count nl) Fun.id))
    in
    let picks = Array.init 20 (fun _ -> Sttc_util.Rng.pick rng gates) in
    let tr = Sta.trial lib sta in
    let c0, s0 = cone_stats (Metrics.snapshot ()) in
    let trial_delays, trial_s =
      time (fun () ->
          Array.map
            (fun g ->
              Sta.trial_set tr [ g ];
              let d = Sta.trial_current_delay_ps tr in
              Sta.trial_set tr [];
              d)
            picks)
    in
    let c1, s1 = cone_stats (Metrics.snapshot ()) in
    let full_delays, full_s =
      time (fun () ->
          Array.map
            (fun g ->
              Sta.critical_delay_ps
                (Sta.analyze lib
                   (Transform.replace_many ~keep_function:false nl [ g ])))
            picks)
    in
    if trial_delays <> full_delays then begin
      Printf.printf "trial delays DIFFER from from-scratch delays\n";
      exit 1
    end;
    let cone_mean =
      if c1 > c0 then (s1 -. s0) /. float_of_int (c1 - c0) else 0.
    in
    (full_s /. trial_s, cone_mean)
  in
  (* the trial engine reports cone sizes through the metrics registry,
     which records only while observability is on *)
  Sttc_obs.Control.enable ();
  let rows =
    List.map
      (fun gates ->
        let nl, gen_s = time (fun () -> Gen.generate_family ~seed:7 ~gates ()) in
        let nodes = Netlist.node_count nl in
        let sta, full_sta_s = time (fun () -> Sta.analyze lib nl) in
        let eval_speedup, cone_mean = candidate_speedup nl sta in
        let _, protect_s =
          time (fun () -> protect_strict ~seed:1 algorithm nl)
        in
        let rss_kb = peak_rss_kb () in
        Printf.printf
          "  %8d gates (%8d nodes)  gen %6.2fs  sta %6.3fs  protect %7.2fs  \
           candidate %8.1fx (cone ~%.0f)  rss %d MB\n\
           %!"
          gates nodes gen_s full_sta_s protect_s eval_speedup cone_mean
          (rss_kb / 1024);
        J.Obj
          [
            ("gates", J.Int gates);
            ("nodes", J.Int nodes);
            ("profile", J.String "slike");
            ("gen_s", J.Float gen_s);
            ("full_sta_s", J.Float full_sta_s);
            ("protect_s", J.Float protect_s);
            ("trial_eval_speedup", J.Float eval_speedup);
            ("trial_cone_nodes_mean", J.Float cone_mean);
            ("peak_rss_kb", J.Int rss_kb);
          ])
      sizes
  in
  Sttc_obs.Control.disable ();
  Sttc_obs.Export.write_file "BENCH_scale.json"
    (J.Obj
       [
         ("experiment", J.String "scale-incremental-timing");
         ("profile", J.String "slike");
         ("seed", J.Int 1);
         ("clock_factor", J.Float 1.02);
         ("rows", J.List rows);
       ]);
  Printf.printf "  wrote BENCH_scale.json\n"

(* ---------- cross-technology backend record ---------- *)

(* Protects each circuit under every registered protection backend with
   the same seed, asserts the selections (the replaced gates) are
   identical across technologies — pricing differs, the flow's choices
   must not — then runs the combinational SAT attack under each
   backend's attacker model (TVD keys constrained to the known candidate
   family) and records overhead, keyspace and attack cost side by side
   in BENCH_backend.json. *)
let backend_bench () =
  section "Protection backends - STT-MRAM LUTs vs TVD camouflaged cells";
  let module J = Sttc_obs.Json in
  let module Backend = Sttc_backend.Backend in
  let module Hybrid = Sttc_core.Hybrid in
  let module Sat_attack = Sttc_attack.Sat_attack in
  let circuits = [ "s27"; "c17"; "s641"; "s1196" ] in
  let rows =
    List.concat_map
      (fun name ->
        let nl = Runner.build_circuit name in
        let per_backend =
          List.map
            (fun backend ->
              let r, protect_s =
                time (fun () ->
                    protect_strict ~backend ~seed:1
                      (Flow.Independent { count = 5 })
                      nl)
              in
              (backend, r, protect_s))
            (List.map Backend.find_exn (Backend.names ()))
        in
        (* selection is backend-independent: same netlist, same seed,
           same replaced gates whatever the cell technology *)
        let selections =
          List.map (fun (_, r, _) -> Hybrid.lut_ids r.Flow.hybrid) per_backend
        in
        (match selections with
        | first :: rest when List.for_all (( = ) first) rest -> ()
        | _ ->
            Printf.printf "backend selections DIFFER on %s\n" name;
            exit 1);
        List.map
          (fun (backend, (r : Flow.result), protect_s) ->
            let hybrid = r.Flow.hybrid in
            let foundry = Hybrid.foundry_view hybrid in
            let luts = Hybrid.lut_ids hybrid in
            let keyspace =
              Backend.search_space backend.Backend.candidates foundry luts
            in
            let candidates =
              Backend.sat_candidates backend.Backend.candidates foundry luts
            in
            let outcome, attack_s =
              time (fun () -> Sat_attack.run ~timeout_s:60. ~candidates hybrid)
            in
            let verdict, iterations, queries =
              match outcome with
              | Sat_attack.Broken b -> ("broken", b.iterations, b.queries)
              | Sat_attack.Exhausted e ->
                  ("exhausted:" ^ e.reason, e.iterations, 0)
            in
            let o = r.Flow.overhead in
            Printf.printf
              "  %-6s %-4s protect %6.2fs  perf %+6.2f%%  power %+6.2f%%  \
               area %+6.2f%%  keys 10^%.1f  sat %-8s %6.2fs (%d it)\n%!"
              name (Backend.name backend) protect_s
              o.Sttc_core.Ppa.performance_pct o.Sttc_core.Ppa.power_pct
              o.Sttc_core.Ppa.area_pct
              (Sttc_util.Lognum.log10 keyspace)
              verdict attack_s iterations;
            J.Obj
              [
                ("circuit", J.String name);
                ("backend", J.String (Backend.name backend));
                ("luts", J.Int (Hybrid.lut_count hybrid));
                ("protect_s", J.Float protect_s);
                ("performance_pct", J.Float o.Sttc_core.Ppa.performance_pct);
                ("power_pct", J.Float o.Sttc_core.Ppa.power_pct);
                ("area_pct", J.Float o.Sttc_core.Ppa.area_pct);
                ("keyspace_log10", J.Float (Sttc_util.Lognum.log10 keyspace));
                ("sat_verdict", J.String verdict);
                ("sat_s", J.Float attack_s);
                ("sat_iterations", J.Int iterations);
                ("sat_queries", J.Int queries);
              ])
          per_backend)
      circuits
  in
  Sttc_obs.Export.write_file "BENCH_backend.json"
    (J.Obj
       [
         ("experiment", J.String "protection-backends");
         ("algorithm", J.String "independent");
         ("seed", J.Int 1);
         ("sat_timeout_s", J.Float 60.);
         ("rows", J.List rows);
       ]);
  Printf.printf "  wrote BENCH_backend.json\n"

(* ---------- driver ---------- *)

let sections = [ "parallel"; "scale"; "backend" ]

(* argument mistakes exit with the same sysexits EX_USAGE code 64 the
   sttc CLI uses for its typed usage errors *)
let usage_fail msg =
  prerr_endline ("bench: " ^ msg);
  prerr_endline
    (Printf.sprintf "usage: main.exe [-j N] [%s]..."
       (String.concat "|" sections));
  exit 64

let int_arg flag n =
  match int_of_string_opt n with
  | Some v -> v
  | None -> usage_fail (Printf.sprintf "%s needs an integer, got '%s'" flag n)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let jobs = ref 1 in
  let rec strip = function
    | [] -> []
    | [ "-j" ] -> usage_fail "-j needs a worker count"
    | "-j" :: n :: rest ->
        jobs := int_arg "-j" n;
        strip rest
    | a :: rest when String.length a > 2 && String.sub a 0 2 = "-j" ->
        jobs := int_arg "-j" (String.sub a 2 (String.length a - 2));
        strip rest
    | a :: rest -> a :: strip rest
  in
  let args = strip args in
  let jobs = if !jobs <= 0 then Sttc_util.Pool.default_jobs () else !jobs in
  (match List.find_opt (fun a -> not (List.mem a sections)) args with
  | Some unknown -> usage_fail ("unknown section '" ^ unknown ^ "'")
  | None -> ());
  let want name = args = [] || List.mem name args in
  if want "parallel" then parallel ~jobs ();
  if want "scale" then scale_bench ();
  if want "backend" then backend_bench ();
  Printf.printf "\nbench: done\n"
