(* The performance ledger.  See README.md.

     ledger.exe run --workload W --seed N [--seconds S] [--trace 0|1]
                    [--toy] [--out DIR] [--sttc PATH]
     ledger.exe compare PARENT_DIR CHANGE_DIR
     ledger.exe smoke --sttc PATH [--benchmark FILE] [--out DIR]
     ledger.exe benchmark-json

   A run prints every metric as "name value unit", writes a result file
   with provenance under --out, and ends its standard output with one
   JSON line: {"correct", "attempted", "failed", "metrics"} — the
   end-to-end metrics untraced (--trace 0), the per-layer ones traced
   (--trace 1). *)

module Json = Sttc_obs.Json
module Metrics = Sttc_obs.Metrics

let now = Workload.now
let default_seed = 1

(* ---------- argument parsing ---------- *)

let usage () =
  prerr_endline
    "usage: ledger.exe run --workload W --seed N [--seconds S] [--trace 0|1] \
     [--toy] [--out DIR] [--sttc PATH]\n\
    \       ledger.exe compare PARENT_DIR CHANGE_DIR\n\
    \       ledger.exe smoke --sttc PATH [--benchmark FILE] [--out DIR]\n\
    \       ledger.exe benchmark-json";
  exit 64

(* [flags] take no value, [values] take one; anything else starting with
   "--" is a usage error *)
let parse_args ~flags ~values args =
  let is_flag f = String.length f > 2 && String.sub f 0 2 = "--" in
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | f :: rest when List.mem f flags -> go ((f, "1") :: opts) pos rest
    | f :: v :: rest when List.mem f values -> go ((f, v) :: opts) pos rest
    | f :: _ when is_flag f ->
        prerr_endline ("ledger: unknown option or missing value: " ^ f);
        usage ()
    | p :: rest -> go opts (p :: pos) rest
  in
  go [] [] args

let opt opts name = List.assoc_opt name opts

let int_opt opts name ~default =
  match opt opts name with
  | None -> default
  | Some v -> (
      match int_of_string_opt v with
      | Some n -> n
      | None ->
          prerr_endline ("ledger: " ^ name ^ " expects an integer, got " ^ v);
          usage ())

(* ---------- the run loop ---------- *)

(* Run passes until the next one would end past [budget] seconds, and
   at least [min] of them.  A full major GC before each pass keeps one
   pass's garbage from being collected on the next one's clock. *)
let measure ~budget ~min pass =
  let t0 = now () in
  let rec go n acc =
    Gc.full_major ();
    let p0 = now () in
    let ops = pass () in
    let acc = { Workload.wall = now () -. p0; ops } :: acc in
    let typical = Summary.median (List.map (fun p -> p.Workload.wall) acc) in
    if n + 1 >= min && now () -. t0 +. typical > budget then List.rev acc else go (n + 1) acc
  in
  go 0 []

(* The traced half of a --trace 1 run: passes with recording on, each
   followed by the workload's probe, with counters kept apart per
   segment.  The trace and the counters are also written next to the
   result, for sttc obs-check. *)
let traced_phase ~budget ~min ~untraced ~scratch (inst : Workload.instance) =
  Sttc_obs.Obs.reset ();
  Sttc_obs.Obs.attach_pool ();
  Sttc_obs.Obs.enable ();
  let pass_acc = ref [] and probe_acc = ref [] in
  let segment acc f =
    Metrics.reset ();
    let r = f () in
    acc := Metrics.merge !acc (Metrics.snapshot ());
    r
  in
  (* [measure] times pass + probe; the pass alone is what compares with
     the untraced passes *)
  let passes = ref [] in
  ignore
    (measure ~budget ~min (fun () ->
         let p0 = now () in
         let ops = segment pass_acc inst.Workload.pass in
         passes := { Workload.wall = now () -. p0; ops } :: !passes;
         segment probe_acc inst.Workload.probe;
         []));
  Sttc_obs.Obs.disable ();
  Sttc_obs.Obs.detach_pool ();
  let dropped = Sttc_obs.Span.dropped () in
  let t =
    {
      Workload.iterations = List.length !passes;
      untraced;
      span_times = Workload.fold_spans (Sttc_obs.Span.events ());
      pass_counters = !pass_acc;
      probe_counters = !probe_acc;
    }
  in
  Sttc_obs.Obs.write_trace (scratch ^ ".trace.json");
  Sttc_obs.Export.write_file (scratch ^ ".metrics.json")
    (Sttc_obs.Export.metrics_json_of_snapshot (Metrics.merge !pass_acc !probe_acc));
  Sttc_obs.Obs.reset ();
  (List.rev !passes, t, dropped)

let wall (p : Workload.pass) = p.wall

(* self and total seconds per traced pass of every span name *)
let profile_json (t : Workload.traced) ~traced_pass =
  let per = Workload.per_iteration t in
  let names = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.span_times []) in
  Json.Obj
    [
      ("iterations", Json.Int t.iterations);
      ("traced_pass_s", Json.Float traced_pass);
      ( "self_s_per_pass",
        Json.Obj
          (List.map
             (fun n ->
               let x = Workload.times t n in
               ( n,
                 Json.Obj
                   [
                     ("self_s", Json.Float (per x.self));
                     ("total_s", Json.Float (per x.total));
                     ("spans", Json.Float (per (float_of_int x.spans)));
                   ] ))
             names) );
      ("counters", Metrics.to_json (Metrics.merge t.pass_counters t.probe_counters));
    ]

type outcome = {
  metrics : Workload.metric list;  (** everything printed *)
  line : Workload.metric list;  (** the result line's metric set *)
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  result : Json.t;
}

let read_digests path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | text -> (
      match Json.of_string text with
      | Ok (Json.Obj fields) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string_opt v))
            fields
      | _ -> [])

let provenance ~(w : Workload.t) ~seed ~seconds ~trace ~toy ~passes =
  Json.Obj
    ([ ("workload", Json.String w.Workload.name); ("operation", Json.String w.op) ]
    @ Sttc_obs.Build_info.to_fields ()
    @ [
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("jobs", Json.Int w.jobs);
        ("seed", Json.Int seed);
        ("seconds", Json.Int seconds);
        ("trace", Json.Bool trace);
        ("toy", Json.Bool toy);
        ("repeats", Json.Int passes);
        ( "date",
          let t = Unix.gmtime (Unix.time ()) in
          Json.String
            (Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900)
               (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min t.tm_sec) );
      ])

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (m : Workload.metric) ->
         ( m.name,
           Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ] ))
       ms)

let run_workload ~(w : Workload.t) ~(cfg : Workload.config) ~seconds ~trace
    ~digests =
  let toy = cfg.Workload.toy in
  (* Set up several times: at least five, and more while they add up to
     less than a second, up to 25, since most set-ups take 10-30 ms and
     their median needs many samples to hold still.  The median is
     setup_s; the last instance is used and the others are closed (and
     collectable) before the next starts. *)
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let inst = w.Workload.setup cfg in
    (now () -. t0, inst)
  in
  let rec setups acc =
    let s, inst = setup () in
    let acc = s :: acc in
    let n = List.length acc and spent = List.fold_left ( +. ) 0. acc in
    if toy || n >= 25 || (n >= 5 && spent >= 1.) then (List.rev acc, inst)
    else begin
      inst.Workload.close ();
      setups acc
    end
  in
  let setup_times, inst = setups [] in
  let setup_s = Summary.median setup_times in
  Fun.protect ~finally:(fun () -> inst.Workload.close ()) @@ fun () ->
  let warm = if toy then [] else inst.Workload.pass () in
  let budget = float_of_int seconds in
  (* peak RSS over a fixed amount of work — set-ups, warm-up and the
     first [min_passes] passes — so that it does not grow with the
     number of passes a run happens to fit *)
  let min_passes = if toy then 1 else 3 in
  let peak_rss_mb = ref 0. in
  let counted_pass =
    let n = ref 0 in
    fun () ->
      let ops = inst.Workload.pass () in
      incr n;
      if !n = min_passes then peak_rss_mb := inst.Workload.peak_rss_mb ();
      ops
  in
  let measured, traced =
    if not trace then (measure ~budget ~min:min_passes counted_pass, None)
    else
      let untraced = measure ~budget:(budget /. 2.) ~min:min_passes counted_pass in
      ( untraced,
        Some
          (traced_phase ~budget:(budget /. 2.) ~min:(if toy then 1 else 2) ~untraced
             ~scratch:cfg.Workload.scratch inst) )
  in
  let pass_s = Summary.of_list (List.map wall measured) in
  let layer, profile =
    match traced with
    | None -> ([], Json.Null)
    | Some (passes, t, dropped) ->
        let traced_pass = Summary.median (List.map wall passes) in
        let n_spans = Hashtbl.fold (fun _ x acc -> acc + x.Workload.spans) t.span_times 0 in
        ( [
            Workload.metric "trace.overhead_pct" "%"
              (100. *. ((traced_pass /. pass_s.Summary.median) -. 1.));
            Workload.metric "trace.dropped" "count" (float_of_int dropped);
            Workload.metric "trace.spans" "count" (Workload.per_iteration t (float_of_int n_spans));
          ]
          @ inst.Workload.layer_metrics t,
          profile_json t ~traced_pass )
  in
  let traced_passes = match traced with Some (passes, _, _) -> passes | None -> [] in
  let ops = warm @ List.concat_map (fun (p : Workload.pass) -> p.ops) (measured @ traced_passes) in
  let digest = inst.Workload.digest () in
  let checks =
    inst.Workload.checks ()
    @ (if toy || cfg.Workload.seed <> default_seed then []
       else
         [
           ( "digest at the default seed",
             List.assoc_opt w.Workload.name digests = Some digest );
         ])
    @ match traced with Some (_, _, dropped) -> [ ("no dropped spans", dropped = 0) ] | None -> []
  in
  let e2e = [ Workload.metric "setup_s" "s" setup_s ] in
  (* user-visible, but too noisy on a shared host to carry a bound
     (README.md, "Calibration"): per-layer metrics of the traced run,
     and in every result file *)
  let headline =
    [
      Workload.metric "op_p50_ms" "ms" (inst.Workload.op_ms measured);
      Workload.metric "peak_rss_mb" "MB"
        (if !peak_rss_mb > 0. then !peak_rss_mb else inst.Workload.peak_rss_mb ());
    ]
  in
  let line =
    if trace then Catalog.complete ~names:Catalog.layer_names (headline @ layer)
    else Catalog.complete ~names:Catalog.e2e_names e2e
  in
  let failed_ops = List.length (List.filter (fun o -> not o.Workload.ok) ops) in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  let attempted = List.length ops + List.length checks in
  let failed = failed_ops + failed_checks in
  let user =
    Workload.metric "failed_share" "ratio" (float_of_int failed /. float_of_int (max 1 attempted))
    :: inst.Workload.user_metrics measured
  in
  let result =
    Json.Obj
      [
        ( "provenance",
          provenance ~w ~seed:cfg.Workload.seed ~seconds ~trace ~toy
            ~passes:(List.length measured) );
        ("setup_s", Json.List (List.map (fun s -> Json.Float s) setup_times));
        ( "passes",
          Json.List
            (List.map
               (fun { Workload.wall; ops } ->
                 Json.Obj
                   [
                     ("wall_s", Json.Float wall);
                     ( "ops",
                       Json.List
                         (List.map
                            (fun (o : Workload.op) ->
                              Json.Obj
                                [
                                  ("kind", Json.String o.kind);
                                  ("seconds", Json.Float o.seconds);
                                  ("ok", Json.Bool o.ok);
                                ])
                            ops) );
                   ])
               measured) );
        ("pass_s", Summary.to_json pass_s);
        ("metrics", metrics_json (e2e @ headline @ user @ layer));
        ( "checks",
          Json.Obj (List.map (fun (name, ok) -> (name, Json.Bool ok)) checks) );
        ("digest", Json.String digest);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("profile", profile);
      ]
  in
  { metrics = e2e @ headline @ user @ layer; line; attempted; failed; checks; result }

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let find_workload name =
  match Catalog.find_workload name with
  | Some w -> w
  | None ->
      prerr_endline
        ("ledger: unknown workload " ^ name ^ "; known: "
        ^ String.concat ", " (List.map (fun w -> w.Workload.name) Catalog.workloads));
      exit 64

let config ~toy ~seed ~sttc ~out ~tag =
  mkdir_p out;
  { Workload.toy; seed; sttc; scratch = Filename.concat out tag }

let run_cmd args =
  let opts, pos =
    parse_args ~flags:[ "--toy" ]
      ~values:[ "--workload"; "--seed"; "--seconds"; "--trace"; "--out"; "--sttc" ]
      args
  in
  if pos <> [] then usage ();
  let w = find_workload (match opt opts "--workload" with Some w -> w | None -> usage ()) in
  let seed = int_opt opts "--seed" ~default:default_seed in
  let toy = opt opts "--toy" <> None in
  let seconds = int_opt opts "--seconds" ~default:(if toy then 0 else Catalog.run_seconds) in
  let trace = int_opt opts "--trace" ~default:0 <> 0 in
  let out = Option.value (opt opts "--out") ~default:"_build/ledger" in
  let tag =
    Printf.sprintf "%s-s%d-t%d%s-%d" w.Workload.name seed (Bool.to_int trace)
      (if toy then "-toy" else "") (Unix.getpid ())
  in
  let cfg =
    config ~toy ~seed ~out ~tag
      ~sttc:(Option.value (opt opts "--sttc") ~default:"_build/default/bin/sttc.exe")
  in
  let digests = read_digests "bench/ledger/digests.json" in
  let o = run_workload ~w ~cfg ~seconds ~trace ~digests in
  List.iter
    (fun (m : Workload.metric) -> Printf.printf "%s %.6g %s\n" m.name m.value m.unit_)
    o.metrics;
  List.iter
    (fun (name, ok) -> if not ok then Printf.printf "check FAILED: %s\n" name)
    o.checks;
  let file = cfg.Workload.scratch ^ ".json" in
  Sttc_obs.Export.write_file file o.result;
  Printf.printf "result %s\n" file;
  print_endline
    (Json.to_string ~minify:true
       (Json.Obj
          [
            ("correct", Json.Bool (o.failed = 0));
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", metrics_json o.line);
          ]))

(* ---------- compare ---------- *)

type run = {
  r_workload : string;
  r_seed : int;
  r_trace : bool;
  r_metrics : (string * (float * string)) list;
  r_self : (string * float) list;  (** self seconds per traced pass *)
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let fields = function Some (Json.Obj kv) -> kv | _ -> []

let load_runs dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if not (Filename.check_suffix f ".json") then None
         else
           match Json.of_string (read_file (Filename.concat dir f)) with
           | Ok j -> (
               let prov = Json.member "provenance" j in
               let get k conv = Option.bind (Option.bind prov (Json.member k)) conv in
               match (get "workload" Json.to_string_opt, get "seed" Json.to_int_opt) with
               | Some workload, Some seed ->
                   let num v k = Option.bind (Json.member k v) Json.to_float_opt in
                   Some
                     {
                       r_workload = workload;
                       r_seed = seed;
                       r_trace = get "trace" (function Json.Bool b -> Some b | _ -> None) = Some true;
                       r_metrics =
                         List.filter_map
                           (fun (k, v) ->
                             match (num v "value", Option.bind (Json.member "unit" v) Json.to_string_opt) with
                             | Some x, Some u -> Some (k, (x, u))
                             | _ -> None)
                           (fields (Json.member "metrics" j));
                       r_self =
                         List.filter_map
                           (fun (k, v) -> Option.map (fun x -> (k, x)) (num v "self_s"))
                           (fields
                              (Option.bind (Json.member "profile" j) (Json.member "self_s_per_pass")));
                     }
               | _ -> None)
           | Error _ -> None)

(* parent and change runs of one seed, in file order *)
let pairs parent change =
  let seeds = List.sort_uniq compare (List.map (fun r -> r.r_seed) parent) in
  List.concat_map
    (fun seed ->
      let of_seed rs = List.filter (fun r -> r.r_seed = seed) rs in
      let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
      zip (of_seed parent) (of_seed change))
    seeds

let fmt_summary (s : Summary.t) = Printf.sprintf "%.4g [%.4g %.4g]" s.median s.q1 s.q3

(* Section 8 of the metric guide: a gain needs >= 90% pair wins and a
   median difference beyond the parent's IQR; a spread wider than the
   bound is unresolved unless every change run beats every parent run. *)
let verdict ~better ~bound (pv : float list) (cv : float list) prs =
  let p = Summary.of_list pv and c = Summary.of_list cv in
  let is_better a b = match better with Catalog.Lower -> a < b | Catalog.Higher -> a > b in
  let wins = List.length (List.filter (fun (a, b) -> is_better b a) prs) in
  let n = List.length prs in
  let win_frac = if n = 0 then 0. else float_of_int wins /. float_of_int n in
  let diff = c.median -. p.median in
  let iqr = p.q3 -. p.q1 in
  let worse_by = (match better with Catalog.Lower -> diff | Catalog.Higher -> -.diff) /. Float.abs p.median in
  let all_better =
    List.for_all (fun b -> List.for_all (fun a -> is_better b a) pv) cv
  in
  let v =
    match bound with
    | Some b when Summary.rel_iqr p > b && not all_better -> "unresolved"
    | _ ->
        if win_frac >= 0.9 && Float.abs diff > iqr && is_better c.median p.median then "gain"
        else
          match bound with
          | Some b when worse_by > b -> "REGRESSION"
          | _ -> if worse_by > 0. && Float.abs diff > iqr && win_frac <= 0.1 then "worse" else "within bound"
  in
  (p, c, wins, n, v)

let compare_cmd args =
  let _, pos = parse_args ~flags:[] ~values:[] args in
  let parent_dir, change_dir = match pos with [ p; c ] -> (p, c) | _ -> usage () in
  let parent = load_runs parent_dir and change = load_runs change_dir in
  let workloads = List.sort_uniq compare (List.map (fun r -> r.r_workload) (parent @ change)) in
  Printf.printf "%-14s %-28s %-6s %5s  %-30s %-30s %5s %6s  %s\n" "workload" "metric" "unit"
    "pairs" "parent median [q1 q3]" "change median [q1 q3]" "wins" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let sel rs = List.filter (fun r -> r.r_workload = workload && r.r_trace = trace) rs in
          let p = sel parent and c = sel change in
          let prs = pairs p c in
          if p <> [] && c <> [] then begin
            if List.length prs < 10 then
              Printf.printf "# %s%s: %d pairs; a claim needs at least 10\n" workload
                (if trace then " (traced)" else "") (List.length prs);
            let names =
              List.filter
                (fun (n, _) -> (not trace) || List.mem n Catalog.layer_names)
                (List.hd p).r_metrics
            in
            List.iter
              (fun (name, (_, unit_)) ->
                let value r = Option.map fst (List.assoc_opt name r.r_metrics) in
                let vals rs = List.filter_map value rs in
                let prv = List.filter_map (fun (a, b) -> match (value a, value b) with Some x, Some y -> Some (x, y) | _ -> None) prs in
                let bound = if trace then None else Catalog.bound name in
                let ps, cs, wins, n, v =
                  verdict ~better:(Catalog.direction name unit_) ~bound (vals p) (vals c) prv
                in
                Printf.printf "%-14s %-28s %-6s %5d  %-30s %-30s %5d %6s  %s\n" workload name unit_ n
                  (fmt_summary ps) (fmt_summary cs) wins
                  (match bound with Some b -> Printf.sprintf "%.0f%%" (100. *. b) | None -> "-")
                  v)
              names;
            if trace then begin
              Printf.printf "# %s self time per traced pass (s), parent -> change\n" workload;
              let spans = List.sort_uniq compare (List.concat_map (fun r -> List.map fst r.r_self) (p @ c)) in
              let med rs s = Summary.median (List.filter_map (fun r -> List.assoc_opt s r.r_self) rs) in
              List.iter
                (fun (s, a, b) ->
                  Printf.printf "#   %-34s %10.5f -> %10.5f  %+8.5f (%+.1f%%)\n" s a b (b -. a)
                    (if a = 0. then 0. else 100. *. (b -. a) /. a))
                (List.sort
                   (fun (_, a, _) (_, b, _) -> compare b a)
                   (List.map (fun s -> (s, med p s, med c s)) spans))
            end
          end)
        [ false; true ])
    workloads

(* ---------- smoke ---------- *)

let wait_child pid =
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let smoke_cmd args =
  let opts, _ = parse_args ~flags:[] ~values:[ "--sttc"; "--benchmark"; "--out" ] args in
  let sttc = match opt opts "--sttc" with Some s -> s | None -> usage () in
  let out = Option.value (opt opts "--out") ~default:"smoke" in
  let failures = ref [] in
  let fail msg =
    prerr_endline ("smoke: " ^ msg);
    failures := msg :: !failures
  in
  (match opt opts "--benchmark" with
  | None -> ()
  | Some path -> (
      match Json.of_string (read_file path) with
      | Ok j when j = Catalog.benchmark_json () -> print_endline ("smoke: " ^ path ^ " matches the catalog")
      | Ok _ -> fail (path ^ " differs from `ledger.exe benchmark-json`")
      | Error e -> fail (path ^ ": " ^ e)));
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun trace ->
          let tag = Printf.sprintf "%s-t%d" w.name (Bool.to_int trace) in
          let cfg = config ~toy:true ~seed:default_seed ~sttc ~out ~tag in
          let o = run_workload ~w ~cfg ~seconds:0 ~trace ~digests:[] in
          Printf.printf "smoke: %s: %d operations and checks, %d failed\n%!" tag o.attempted o.failed;
          List.iter (fun (n, ok) -> if not ok then fail (tag ^ ": " ^ n)) o.checks;
          if o.failed > 0 then fail (tag ^ ": failed operations");
          if trace then begin
            let require = String.concat "," (List.map (fun l -> "bench." ^ l) w.layers) in
            let pid =
              Unix.create_process sttc
                [|
                  sttc; "obs-check"; "--trace"; cfg.scratch ^ ".trace.json"; "--metrics";
                  cfg.scratch ^ ".metrics.json"; "--require"; require;
                |]
                Unix.stdin Unix.stdout Unix.stderr
            in
            if not (wait_child pid) then fail (tag ^ ": obs-check --require " ^ require)
          end)
        [ false; true ])
    Catalog.workloads;
  if !failures <> [] then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run_cmd rest
  | _ :: "compare" :: rest -> compare_cmd rest
  | _ :: "smoke" :: rest -> smoke_cmd rest
  | [ _; "benchmark-json" ] -> print_string (Json.to_string (Catalog.benchmark_json ()) ^ "\n")
  | _ -> usage ()
