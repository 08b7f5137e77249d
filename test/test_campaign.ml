(* Tests for the lib/campaign engine: manifest codec and validation,
   deterministic shard assignment, the versioned checkpoint container
   under truncation, worker checkpoint/resume equality, and the
   supervisor's failure paths — killed, stalled, lying and crashing
   workers — driven with /bin/sh stand-in workers so every failure is
   deterministic and fast. *)

module Manifest = Sttc_campaign.Manifest
module Shard = Sttc_campaign.Shard
module Worker = Sttc_campaign.Worker
module Supervisor = Sttc_campaign.Supervisor
module Aggregate = Sttc_campaign.Aggregate
module Ckpt = Sttc_util.Ckpt
module Flow = Sttc_core.Flow
module Metrics = Sttc_obs.Metrics
module Obs = Sttc_obs.Obs
module Runner = Sttc_experiments.Runner

let all_complete o =
  List.for_all (fun (_, s) -> s = Supervisor.Complete) o.Supervisor.statuses

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "sttc-campaign-test-%d-%d" (Unix.getpid ()) !n)
    in
    Shard.prepare_dir path;
    path

(* a manifest whose runs are real but tiny (s27: 10 gates) *)
let tiny ?(algorithms = [ Flow.Dependent ]) ?(seeds = [ 1 ]) ?(shards = 1)
    ?(retries = 1) ?(heartbeat_timeout_s = 5.) () =
  {
    Manifest.name = "t";
    circuits = [ "s27" ];
    algorithms;
    configs = [ Manifest.default_config ];
    seeds;
    shards;
    timeout_s = None;
    retries;
    heartbeat_timeout_s;
    attempt_timeout_s = None;
    backend = "stt";
  }

(* a manifest file holding [text], loaded *)
let load_text text =
  let path = Filename.concat (fresh_dir ()) "manifest.json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Manifest.load path

(* [agg]'s report as written to disk, run through the report validator *)
let written_report ~dir agg =
  (match Aggregate.write ~dir agg with Ok () -> () | Error e -> Alcotest.fail e);
  match
    Sttc_obs.Json.of_string
      (In_channel.with_open_bin (Shard.report_json_path dir) In_channel.input_all)
  with
  | Ok j -> j
  | Error e -> Alcotest.fail e

(* fabricated completed rows for one shard — supervisor/aggregate tests
   never need the flow to actually run *)
let fake_metrics =
  {
    Shard.gates = 10;
    luts = 2;
    config_bits = 8;
    perf_pct = 1.5;
    power_pct = 2.5;
    area_pct = 3.5;
    n_indep = "1.0e+03";
    n_dep = "1.0e+04";
    n_bf = "1.0e+05";
  }

let fake_rows m ~shard =
  List.map
    (fun (r : Manifest.run) ->
      {
        Shard.index = r.index;
        circuit = r.circuit;
        config = r.config.label;
        algorithm = Flow.algorithm_name r.algorithm;
        seed = r.seed;
        outcome = Shard.Done fake_metrics;
      })
    (Shard.assign m ~shard)

(* worker/supervisor runs flip the global recorder on; leave it clean *)
let scrubbed f () =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* ---------- manifest ---------- *)

let test_manifest_round_trip () =
  let m =
    {
      Manifest.name = "rt";
      circuits = [ "s27"; "s641" ];
      algorithms =
        [
          Flow.Dependent;
          Flow.Independent { count = 7 };
          Flow.Parametric
            { Sttc_core.Algorithms.default_parametric with clock_factor = 1.1 };
        ];
      configs =
        [
          Manifest.default_config;
          { Manifest.label = "hard"; fraction = Some 0.25; harden = true };
        ];
      seeds = [ 3; 5 ];
      shards = 3;
      timeout_s = Some 12.5;
      retries = 4;
      heartbeat_timeout_s = 7.5;
      attempt_timeout_s = Some 90.;
      backend = "stt";
    }
  in
  let path = Filename.concat (fresh_dir ()) "manifest.json" in
  Manifest.save path m;
  match Manifest.load path with
  | Ok m' -> Alcotest.(check bool) "round trip" true (m = m')
  | Error e -> Alcotest.fail e

let test_manifest_defaults_and_seeds_object () =
  match
    load_text
      {|{"name": "d", "circuits": ["s27"], "seeds": {"base": 10, "count": 3}}|}
  with
  | Error e -> Alcotest.fail e
  | Ok m ->
      Alcotest.(check (list int)) "seeds expanded" [ 10; 11; 12 ] m.seeds;
      Alcotest.(check int)
        "default algorithms"
        (List.length Flow.default_algorithms)
        (List.length m.algorithms);
      Alcotest.(check int) "default shards" 1 m.shards;
      Alcotest.(check int) "default retries" 2 m.retries;
      Alcotest.(check int) "run count" (3 * List.length m.algorithms)
        (Manifest.run_count m)

let test_manifest_rejections () =
  let bad =
    [
      ( "unknown circuit",
        {|{"name": "x", "circuits": ["nosuch"], "seeds": [1]}|} );
      ("no seeds", {|{"name": "x", "circuits": ["s27"], "seeds": []}|});
      ( "bad shards",
        {|{"name": "x", "circuits": ["s27"], "seeds": [1], "shards": 0}|} );
      ( "dup labels",
        {|{"name": "x", "circuits": ["s27"], "seeds": [1],
           "configs": [{"label": "a"}, {"label": "a"}]}|} );
      ( "bad fraction",
        {|{"name": "x", "circuits": ["s27"], "seeds": [1],
           "configs": [{"label": "a", "fraction": 1.5}]}|} );
      ("not json", "][");
    ]
  in
  List.iter
    (fun (what, text) ->
      match load_text text with
      | Ok _ -> Alcotest.fail (what ^ ": accepted")
      | Error _ -> ())
    bad

(* ---------- shard assignment ---------- *)

let test_shard_partition () =
  let m = tiny ~algorithms:Flow.default_algorithms ~seeds:[ 1; 2; 3 ] ~shards:4 () in
  let all = Manifest.runs m in
  let parts = List.init 4 (fun shard -> Shard.assign m ~shard) in
  let union = List.concat parts in
  Alcotest.(check int)
    "complete" (List.length all) (List.length union);
  let indices =
    List.sort compare (List.map (fun (r : Manifest.run) -> r.index) union)
  in
  Alcotest.(check (list int))
    "disjoint and complete"
    (List.init (List.length all) Fun.id)
    indices;
  List.iteri
    (fun shard part ->
      List.iter
        (fun (r : Manifest.run) ->
          Alcotest.(check int) "round robin" shard (r.index mod 4))
        part;
      Alcotest.(check bool)
        "deterministic" true
        (part = Shard.assign m ~shard))
    parts;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Shard.assign: shard 4 out of range [0, 4)") (fun () ->
      ignore (Shard.assign m ~shard:4))

(* ---------- the checkpoint container ---------- *)

let test_ckpt_round_trip_and_magic () =
  let path = Filename.temp_file "ckpt" ".bin" in
  let v = (42, [ "a"; "b" ]) in
  Ckpt.save path ~magic:"test-v1" v;
  (match Ckpt.load path ~magic:"test-v1" with
  | Ok (v' : int * string list) -> Alcotest.(check bool) "round trip" true (v = v')
  | Error e -> Alcotest.fail (Ckpt.error_to_string e));
  (match Ckpt.load path ~magic:"test-v2" with
  | Error (`Rejected r) ->
      Alcotest.(check bool)
        "names the mismatch" true
        (String.length r > 0)
  | Ok (_ : int * string list) -> Alcotest.fail "foreign magic accepted"
  | Error `Missing -> Alcotest.fail "file exists");
  (match Ckpt.load (path ^ ".nope") ~magic:"test-v1" with
  | Error `Missing -> ()
  | _ -> Alcotest.fail "missing file not reported as Missing");
  Sys.remove path

let ckpt_truncation_fuzz =
  QCheck.Test.make ~count:60 ~name:"truncated checkpoint is always rejected"
    QCheck.(int_bound 10_000)
    (fun salt ->
      let path = Filename.temp_file "ckpt-fuzz" ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Ckpt.save path ~magic:"fuzz-v1"
            (List.init 50 (fun i -> (i * salt, string_of_int i)));
          let full = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length full in
          (* cut anywhere strictly inside the file, header included *)
          let cut = salt mod (len - 1) in
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc (String.sub full 0 cut));
          match Ckpt.load path ~magic:"fuzz-v1" with
          | Error (`Rejected _) -> true
          | Ok (_ : (int * string) list) ->
              QCheck.Test.fail_reportf "truncation at %d/%d accepted" cut len
          | Error `Missing ->
              QCheck.Test.fail_reportf "file exists but reported missing"))

(* ---------- worker: checkpoint resume convergence ---------- *)

let worker_manifest =
  tiny ~algorithms:[ Flow.Dependent; Flow.Independent { count = 3 } ]
    ~seeds:[ 1; 2 ] ()

let worker_rows dir =
  match Shard.load_result ~dir ~shard:0 with
  | Ok rows -> rows
  | Error e -> Alcotest.fail (Ckpt.error_to_string e)

let run_worker ?(attempt = 1) dir =
  Manifest.save (Shard.manifest_path dir) worker_manifest;
  match Worker.run ~dir ~shard:0 ~attempt () with
  | Ok o -> o
  | Error e -> Alcotest.fail e

let test_worker_resume_convergence () =
  (* reference: one uninterrupted pass *)
  let ref_dir = fresh_dir () in
  let full = run_worker ref_dir in
  Alcotest.(check int) "computed all" 4 full.computed;
  let reference = worker_rows ref_dir in
  Alcotest.(check int) "all rows" 4 (List.length reference);
  (* resumed: first two rows restored from a checkpoint, rest computed *)
  let res_dir = fresh_dir () in
  Shard.save_checkpoint ~dir:res_dir ~shard:0
    (List.filteri (fun i _ -> i < 2) reference);
  let o = run_worker ~attempt:2 res_dir in
  Alcotest.(check int) "restored" 2 o.restored;
  Alcotest.(check int) "computed rest" 2 o.computed;
  Alcotest.(check bool)
    "rows identical to uninterrupted run" true
    (worker_rows res_dir = reference);
  (* corrupt checkpoint: rejected cleanly, full recompute, same rows *)
  let bad_dir = fresh_dir () in
  Out_channel.with_open_bin
    (Shard.checkpoint_path ~dir:bad_dir 0)
    (fun oc -> Out_channel.output_string oc "not a checkpoint at all\n");
  let o = run_worker bad_dir in
  Alcotest.(check int) "nothing restored from garbage" 0 o.restored;
  Alcotest.(check int) "everything recomputed" 4 o.computed;
  Alcotest.(check bool)
    "rows still identical" true
    (worker_rows bad_dir = reference)

(* ---------- supervisor failure paths (sh stand-in workers) ---------- *)

(* Each script receives $1=dir $2=shard $3=attempt; paths that matter
   are substituted in directly. *)
let sh_worker script =
  Supervisor.Spawn
    (fun ~dir ~shard ~attempt ->
      [|
        "/bin/sh";
        "-c";
        script;
        "worker";
        dir;
        string_of_int shard;
        string_of_int attempt;
      |])

let supervise ?(retries = 1) ?(heartbeat_timeout_s = 5.) ~worker events =
  let m = tiny ~retries ~heartbeat_timeout_s () in
  let dir = fresh_dir () in
  Manifest.save (Shard.manifest_path dir) m;
  let cfg =
    Supervisor.config ~jobs:1 ~backoff_base_s:0.01 ~backoff_cap_s:0.05
      ~poll_interval_s:0.01 ~worker
      ~on_event:(fun e -> events := e :: !events)
      ~dir ~manifest:m ()
  in
  (dir, m, Supervisor.run cfg)

(* a stashed valid result the recovering attempt can "produce" *)
let stash_result m =
  let stash = fresh_dir () in
  Shard.save_result ~dir:stash ~shard:0 (fake_rows m ~shard:0);
  Shard.result_path ~dir:stash 0

let test_supervisor_exhausts_hard_failure =
  scrubbed @@ fun () ->
  let events = ref [] in
  let _, _, outcome = supervise ~retries:2 ~worker:(sh_worker "exit 3") events in
  (match outcome.Supervisor.statuses with
  | [ (0, Supervisor.Exhausted { attempts = 3; last = Supervisor.Exited 3 }) ]
    -> ()
  | _ -> Alcotest.fail "expected shard 0 exhausted after 3 attempts");
  Alcotest.(check int) "retries" 2 outcome.Supervisor.retries;
  Alcotest.(check int) "respawns" 2 outcome.Supervisor.respawns;
  Alcotest.(check int) "degraded" 1 outcome.Supervisor.degraded;
  Alcotest.(check bool) "not complete" false (all_complete outcome);
  let degraded_events =
    List.filter
      (function Supervisor.Degraded _ -> true | _ -> false)
      !events
  in
  Alcotest.(check int) "one degraded event" 1 (List.length degraded_events)

let test_supervisor_sigkill_then_recover =
  scrubbed @@ fun () ->
  let m = tiny () in
  let stash = stash_result m in
  let script =
    Printf.sprintf
      {|if [ "$3" = "1" ]; then kill -9 $$; else cp %s "$1/shards/shard-$2.done"; fi|}
      (Filename.quote stash)
  in
  let events = ref [] in
  let _, _, outcome = supervise ~worker:(sh_worker script) events in
  Alcotest.(check bool) "complete" true (all_complete outcome);
  Alcotest.(check int) "one retry" 1 outcome.Supervisor.retries;
  Alcotest.(check int) "one respawn" 1 outcome.Supervisor.respawns;
  let saw_sigkill =
    List.exists
      (function
        | Supervisor.Attempt_failed { cause = Supervisor.Signaled s; _ } ->
            s = Sys.sigkill
        | _ -> false)
      !events
  in
  Alcotest.(check bool) "failure recorded as SIGKILL" true saw_sigkill

let test_supervisor_stalled_heartbeat =
  scrubbed @@ fun () ->
  let m = tiny () in
  let stash = stash_result m in
  let script =
    Printf.sprintf
      {|if [ "$3" = "1" ]; then echo 1.1 > "$1/shards/shard-$2.hb"; exec sleep 30; else cp %s "$1/shards/shard-$2.done"; fi|}
      (Filename.quote stash)
  in
  let events = ref [] in
  let _, _, outcome =
    supervise ~heartbeat_timeout_s:0.2 ~worker:(sh_worker script) events
  in
  Alcotest.(check bool) "complete" true (all_complete outcome);
  Alcotest.(check int)
    "heartbeat miss counted" 1 outcome.Supervisor.heartbeat_misses;
  let saw_stall =
    List.exists
      (function
        | Supervisor.Attempt_failed { cause = Supervisor.Stalled _; _ } -> true
        | _ -> false)
      !events
  in
  Alcotest.(check bool) "failure recorded as stall" true saw_stall

let test_supervisor_bad_result_retried =
  scrubbed @@ fun () ->
  let m = tiny () in
  let stash = stash_result m in
  let script =
    Printf.sprintf
      {|if [ "$3" = "1" ]; then echo garbage > "$1/shards/shard-$2.done"; else cp %s "$1/shards/shard-$2.done"; fi|}
      (Filename.quote stash)
  in
  let events = ref [] in
  let _, _, outcome = supervise ~worker:(sh_worker script) events in
  Alcotest.(check bool) "complete" true (all_complete outcome);
  let saw_bad_result =
    List.exists
      (function
        | Supervisor.Attempt_failed { cause = Supervisor.Bad_result _; _ } ->
            true
        | _ -> false)
      !events
  in
  Alcotest.(check bool) "exit 0 with garbage is Bad_result" true saw_bad_result

let test_supervisor_in_process_counters =
  scrubbed @@ fun () ->
  Obs.enable ();
  let events = ref [] in
  let dir, m, outcome = supervise ~worker:Supervisor.In_process events in
  Alcotest.(check bool) "complete" true (all_complete outcome);
  let snap = Metrics.snapshot () in
  Alcotest.(check int)
    "shards completed counter" 1
    (Metrics.counter_value snap "campaign.shards_completed");
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " pre-seeded") 0
        (Metrics.counter_value snap name))
    [
      "campaign.shard_retries";
      "campaign.worker_respawns";
      "campaign.heartbeat_misses";
      "campaign.shards_degraded";
    ];
  (* the aggregated report over a real shard validates *)
  let agg = Aggregate.collect ~dir m in
  Alcotest.(check bool) "aggregate complete" true (Aggregate.complete agg);
  match Aggregate.validate (written_report ~dir agg) with
  | Ok n -> Alcotest.(check int) "validated rows" (Manifest.run_count m) n
  | Error e -> Alcotest.fail e

let test_supervisor_backoff =
  scrubbed @@ fun () ->
  (* base 0.01 s, cap 0.05 s: the first retry waits the base, each
     further one doubles, and the fourth is capped *)
  let events = ref [] in
  let _ = supervise ~retries:4 ~worker:(sh_worker "exit 3") events in
  Alcotest.(check (list (float 1e-9)))
    "schedule" [ 0.01; 0.02; 0.04; 0.05 ]
    (List.rev
       (List.filter_map
          (function
            | Supervisor.Attempt_failed { backoff_s; _ } -> Some backoff_s
            | _ -> None)
          !events))

(* ---------- aggregation and degradation ---------- *)

let test_aggregate_degraded_footnotes () =
  let m = tiny ~seeds:[ 1; 2 ] ~shards:2 () in
  let dir = fresh_dir () in
  (* shard 0 finished; shard 1 died before its first checkpoint *)
  Shard.save_result ~dir ~shard:0 (fake_rows m ~shard:0);
  let agg = Aggregate.collect ~degraded:[ (1, "SIGKILL") ] ~dir m in
  Alcotest.(check bool) "not complete" false (Aggregate.complete agg);
  Alcotest.(check int) "one missing run" 1 (List.length agg.Aggregate.missing);
  (* writing re-reads and validates the json from disk *)
  (match Aggregate.validate (written_report ~dir agg) with
  | Ok n -> Alcotest.(check int) "rows cover every run" 2 n
  | Error e -> Alcotest.fail e);
  let text = Aggregate.render_text agg in
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "missing row footnoted" true (contains "missing [1]");
  Alcotest.(check bool)
    "footnote names the degraded shard" true
    (contains "shard 1 degraded: SIGKILL")

let test_aggregate_json_rejects_inconsistency () =
  let m = tiny () in
  let dir = fresh_dir () in
  Shard.save_result ~dir ~shard:0 (fake_rows m ~shard:0);
  let j = written_report ~dir (Aggregate.collect ~dir m) in
  match j with
  | Sttc_obs.Json.Obj fields ->
      let broken =
        Sttc_obs.Json.Obj
          (List.map
             (function
               | "completed", Sttc_obs.Json.Int _ ->
                   ("completed", Sttc_obs.Json.Int 99)
               | f -> f)
             fields)
      in
      (match Aggregate.validate broken with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "inconsistent counts accepted")
  | _ -> Alcotest.fail "report is not an object"

(* ---------- the paper sweep as a manifest ---------- *)

(* examples/paper.json is the Table I / Fig. 3 sweep as a campaign: the
   resumable way to run it.  Its s641 and s820 runs through the campaign
   engine must give the same cells as Runner.rows, the other executor
   of the same protect unit. *)
let test_paper_manifest_matches_runner =
  scrubbed @@ fun () ->
  let m =
    match Manifest.load "../examples/paper.json" with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "the twelve twins" 12 (List.length m.circuits);
  Alcotest.(check (list int)) "the master seed" [ Runner.master_seed ] m.seeds;
  Alcotest.(check (list string))
    "the paper's algorithms"
    (List.map Flow.algorithm_name Flow.default_algorithms)
    (List.map Flow.algorithm_name m.algorithms);
  let circuits = [ "s641"; "s820" ] in
  let m = { m with circuits } in
  let dir = fresh_dir () in
  Manifest.save (Shard.manifest_path dir) m;
  let outcome =
    Supervisor.run
      (Supervisor.config ~jobs:1 ~worker:Supervisor.In_process ~dir
         ~manifest:m ())
  in
  Alcotest.(check bool) "complete" true (all_complete outcome);
  let campaign =
    List.map
      (fun (r : Shard.row) ->
        match r.outcome with
        | Shard.Done x ->
            ( r.circuit,
              r.algorithm,
              [
                string_of_int x.luts;
                Printf.sprintf "%.2f" x.perf_pct;
                Printf.sprintf "%.2f" x.power_pct;
                Printf.sprintf "%.2f" x.area_pct;
                x.n_indep;
                x.n_dep;
                x.n_bf;
              ] )
        | Shard.Failed reason -> Alcotest.failf "%s failed: %s" r.circuit reason)
      (Aggregate.collect ~dir m).rows
  in
  let lognum = Sttc_util.Lognum.to_string in
  let runner =
    List.concat_map
      (fun (row : Sttc_core.Report.benchmark_row) ->
        List.map
          (fun (alg, (r : Flow.result)) ->
            let o = r.overhead and sec = r.security in
            ( row.circuit,
              alg,
              [
                string_of_int o.n_stts;
                Printf.sprintf "%.2f" o.performance_pct;
                Printf.sprintf "%.2f" o.power_pct;
                Printf.sprintf "%.2f" o.area_pct;
                lognum sec.n_indep;
                lognum sec.n_dep;
                lognum sec.n_bf;
              ] ))
          row.results)
      (Runner.rows Runner.Config.(default |> with_only circuits))
  in
  Alcotest.(check (list (triple string string (list string))))
    "campaign cells = Runner.rows cells" runner campaign

(* ---------- metrics snapshots across processes ---------- *)

let test_metrics_snapshot_round_trip_and_merge =
  scrubbed @@ fun () ->
  Obs.enable ();
  Metrics.incr ~by:3 "campaign.worker.runs";
  Metrics.set_gauge "campaign.peak" 7.;
  List.iter (Metrics.observe "campaign.unit_seconds") [ 0.004; 1.7; 250. ];
  let snap = Metrics.snapshot () in
  (match Metrics.of_json (Metrics.to_json snap) with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
      Alcotest.(check bool)
        "snapshot json round trip" true
        (Metrics.to_json parsed = Metrics.to_json snap);
      let doubled = Metrics.merge snap parsed in
      Alcotest.(check int)
        "merge sums counters" 6
        (Metrics.counter_value doubled "campaign.worker.runs"))

let () =
  Alcotest.run "sttc_campaign"
    [
      ( "manifest",
        [
          Alcotest.test_case "round trip" `Quick test_manifest_round_trip;
          Alcotest.test_case "defaults and seeds object" `Quick
            test_manifest_defaults_and_seeds_object;
          Alcotest.test_case "rejections" `Quick test_manifest_rejections;
        ] );
      ( "shard",
        [
          Alcotest.test_case "partition" `Quick test_shard_partition;
        ] );
      ( "ckpt",
        [
          Alcotest.test_case "round trip and magic" `Quick
            test_ckpt_round_trip_and_magic;
          QCheck_alcotest.to_alcotest ckpt_truncation_fuzz;
        ] );
      ( "worker",
        [
          Alcotest.test_case "resume convergence" `Quick
            (scrubbed test_worker_resume_convergence);
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "exhausts hard failure" `Quick
            test_supervisor_exhausts_hard_failure;
          Alcotest.test_case "sigkill then recover" `Quick
            test_supervisor_sigkill_then_recover;
          Alcotest.test_case "stalled heartbeat" `Quick
            test_supervisor_stalled_heartbeat;
          Alcotest.test_case "bad result retried" `Quick
            test_supervisor_bad_result_retried;
          Alcotest.test_case "in-process counters" `Quick
            test_supervisor_in_process_counters;
          Alcotest.test_case "backoff schedule" `Quick test_supervisor_backoff;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "degraded footnotes" `Quick
            test_aggregate_degraded_footnotes;
          Alcotest.test_case "rejects inconsistency" `Quick
            test_aggregate_json_rejects_inconsistency;
        ] );
      ( "paper",
        [
          Alcotest.test_case "manifest cells match Runner.rows" `Slow
            test_paper_manifest_matches_runner;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "snapshot round trip and merge" `Quick
            test_metrics_snapshot_round_trip_and_merge;
        ] );
    ]
