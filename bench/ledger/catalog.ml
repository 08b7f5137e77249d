(* The metric catalog: the one list BENCHMARK.json is rendered from
   ([ledger.exe benchmark-json]) and every run's result line is checked
   against.  Every workload reports every end-to-end and per-layer
   metric; a layer a workload never enters reads 0. *)

type direction = Lower | Higher

(* how long one run measures; a traced run splits it between untraced
   and traced passes *)
let run_seconds = 15

type bounded = { name : string; unit_ : string; better : direction; bound : float }

(* A bound is max(3%, 3 x IQR/median) of the metric's worst workload
   over a set of ten runs at ten seeds, and a metric whose bound would
   pass 10% carries none: it is reported and judged by the pair rule of
   [ledger.exe compare] instead (README.md, "Calibration").  On the
   shared 2-vCPU host the ledger was calibrated on, only the set-up time
   is an end-to-end metric, and BENCHMARK.json requires it: its spread
   reached 0.52, so it takes the largest bound the format allows. *)
let end_to_end =
  [
    (* median of the set-ups of one run: inputs, hybrids, the daemon *)
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25 };
  ]

(* numbers of some workloads only, whose bounds [ledger.exe compare]
   applies *)
let own =
  [
    (* failed operations and checks / attempted; any rise is a regression *)
    { name = "failed_share"; unit_ = "ratio"; better = Lower; bound = 0. };
    (* verified breaks / SAT attacks, attack-sat *)
    { name = "attack_decided_share"; unit_ = "ratio"; better = Higher; bound = 0. };
  ]

let pct = "%"

(* (name, unit, better) *)
let per_layer =
  [
    (* The user-visible numbers whose spread is too wide for a bound:
       median wall time of one operation (a Flow.run call, a Runner.rows,
       a lint pass, an attack suite, a block of served requests; spread
       0.05-0.32), and the VmHWM of the process doing the work (the daemon
       in serve-mix) after the set-ups, the warm-up and three passes
       (spread up to 0.107). *)
    ("op_p50_ms", "ms", Lower);
    ("peak_rss_mb", "MB", Lower);
    ("trace.overhead_pct", pct, Lower);
    ("trace.dropped", "count", Lower);
    ("trace.spans", "count", Lower);
  ]
  (* protect: shares of the replayed Flow.protect time *)
  @ List.map (fun l -> (l ^ "_pct", pct, Lower)) Replay.layers
  @ [
      ("protect.layer_coverage", "ratio", Higher);
      ("protect.luts", "count", Higher);
      ("select.timing_early_out", "count", Higher);
      ("sta.retime.cone", "count", Lower);
      ("sta.retime.cone_nodes_mean", "count", Lower);
      ("activity.refine.cone", "count", Higher);
      ("activity.refine.full", "count", Lower);
    ]

  (* paper-rows and paper-lint: shares of the Runner.rows / lint pass *)
  @ [ ("runner.build_pct", pct, Lower); ("runner.row_pct", pct, Lower); ("lint.sem_pct", pct, Lower) ]
  @ List.map
      (fun s -> ("lint.sem." ^ s ^ "_pct", pct, Lower))
      ([ "dataflow"; "lower" ] @ Paper_eval.lint_rules)
  @ List.map (fun n -> (n, "count", Lower))
      ([ "lint.sem.queries"; "lint.sem.cutoffs" ] @ Workload.sat_counters)

  (* attack-sat *)
  @ List.map
      (fun n -> (n ^ "_pct", pct, Lower))
      [ "attack.sat"; "attack.seq"; "attack.tt"; "sat.dip_iteration" ]
  @ [
      ("attack.dips", "count", Lower);
      ("attack.oracle_queries", "count", Lower);
      ("attack.budget_ratio_max", "ratio", Lower);
      ("sat.conflicts_per_s", "1/s", Higher);
      ("sat.dip_iterations_per_s", "1/s", Higher);
      ("tt.patterns_per_s", "1/s", Higher);
      ("encode.copy_per_s", "1/s", Higher);
      ("oracle.query_per_s", "1/s", Higher);
      ("oracle.lanes_per_s", "1/s", Higher);
    ]

  (* serve-mix: handler and codec shares of the client latency, and the
     daemon's counters per 100-request block *)
  @ List.map
      (fun v -> ("serve.handler_" ^ v ^ "_pct", pct, Higher))
      [ "lint"; "protect"; "attack" ]
  @ [ ("serve.codec_pct", pct, Lower) ]
  @ [
      ("serve.cache_hits", "count", Higher);
      ("serve.cache_misses", "count", Lower);
      ("serve.sta_cache_hits", "count", Higher);
      ("serve.sta_cache_misses", "count", Lower);
      ("serve.overloaded", "count", Lower);
      ("serve.errors", "count", Lower);
    ]

let direction_name = function Lower -> "lower" | Higher -> "higher"

let workloads =
  [
    Protect_scale.par; Protect_scale.dep; Paper_eval.rows; Paper_eval.lint; Attack_sat.workload;
    Serve_mix.workload;
  ]

let find_workload name = List.find_opt (fun w -> w.Workload.name = name) workloads

let unit_of name =
  match List.find_opt (fun (e : bounded) -> e.name = name) end_to_end with
  | Some e -> Some e.unit_
  | None ->
      List.find_map (fun (n, u, _) -> if n = name then Some u else None) per_layer

(* The full metric set of a result line, zero-filled; raises if a
   workload reports a name outside the catalog or with another unit. *)
let complete ~names (ms : Workload.metric list) =
  List.iter
    (fun (m : Workload.metric) ->
      if not (List.mem m.name names) then
        failwith ("metric outside the catalog: " ^ m.name);
      if unit_of m.name <> Some m.unit_ then failwith ("unit mismatch: " ^ m.name))
    ms;
  List.map
    (fun name ->
      match List.find_opt (fun (m : Workload.metric) -> m.name = name) ms with
      | Some m -> m
      | None -> Workload.metric name (Option.get (unit_of name)) 0.)
    names

let e2e_names = List.map (fun (e : bounded) -> e.name) end_to_end
let layer_names = List.map (fun (n, _, _) -> n) per_layer

let find_bounded name = List.find_opt (fun (e : bounded) -> e.name = name) (end_to_end @ own)

(* direction of a metric outside the lists (a workload's per-verb
   latencies in its result file): rates are better higher, everything
   else lower *)
let direction name unit_ =
  match find_bounded name with
  | Some e -> e.better
  | None -> (
      match List.find_opt (fun (n, _, _) -> n = name) per_layer with
      | Some (_, _, d) -> d
      | None -> if unit_ = "1/s" then Higher else Lower)

let bound name = Option.map (fun (e : bounded) -> e.bound) (find_bounded name)

(* BENCHMARK.json: how to run the benchmark and what it reports *)
let benchmark_json () =
  let module J = Sttc_obs.Json in
  let s x = J.String x in
  J.Obj
    [
      ("command", J.List [ s "bash"; s "bench/ledger/run.sh" ]);
      ("paths", J.List [ s "bench/ledger" ]);
      ("run_seconds", J.Int run_seconds);
      ( "workloads",
        J.List
          (List.map
             (fun (w : Workload.t) -> J.Obj [ ("name", s w.name); ("why", s w.why) ])
             workloads) );
      ( "end_to_end",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("name", s e.name); ("unit", s e.unit_);
                   ("better", s (direction_name e.better)); ("bound", J.Float e.bound);
                 ])
             end_to_end) );
      ( "per_layer",
        J.List
          (List.map
             (fun (n, u, d) ->
               J.Obj [ ("name", s n); ("unit", s u); ("better", s (direction_name d)) ])
             per_layer) );
    ]
