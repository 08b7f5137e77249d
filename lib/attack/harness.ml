module Lognum = Sttc_util.Lognum

type verdict =
  | Recovered
  | Partial of float
  | Resisted

type entry = {
  attack : string;
  verdict : verdict;
  seconds : float;
  oracle_queries : int;
  detail : string;
  sat_stats : Sttc_obs.Metrics.snapshot option;
}

(* Solver telemetry now has one representation: the harness converts the
   solver's raw per-attack stats into the same snapshot shape the
   metrics registry exports, under the same series names.  Sorted by
   name, like every snapshot. *)
let snapshot_of_sat_stats (s : Sttc_logic.Sat.stats) : Sttc_obs.Metrics.snapshot
    =
  let open Sttc_obs.Metrics in
  [
    ("sat.conflicts", Counter s.Sttc_logic.Sat.conflicts);
    ("sat.decisions", Counter s.Sttc_logic.Sat.decisions);
    ("sat.kept_clauses", Gauge (float_of_int s.Sttc_logic.Sat.kept));
    ("sat.learned", Counter s.Sttc_logic.Sat.learned);
    ("sat.propagations", Counter s.Sttc_logic.Sat.propagations);
    ("sat.removed", Counter s.Sttc_logic.Sat.removed);
    ("sat.restarts", Counter s.Sttc_logic.Sat.restarts);
  ]

type campaign = {
  circuit : string;
  algorithm : string;
  lut_count : int;
  entries : entry list;
}

module Config = struct
  module Json = Sttc_obs.Json

  type t = {
    sat_timeout_s : float;
    seq_timeout_s : float option;
    tt_budget : int;
    guess_rounds : int;
    brute_max_bits : int;
    seq_frames : int;
    seed : int;
    jobs : int;
    solver_mode : Sat_attack.solver_mode;
  }

  let default =
    {
      sat_timeout_s = 30.;
      seq_timeout_s = None;
      tt_budget = 4000;
      guess_rounds = 8;
      brute_max_bits = 16;
      seq_frames = 4;
      seed = 0xcafe;
      jobs = 1;
      solver_mode = Sat_attack.Incremental;
    }

  let with_sat_timeout_s sat_timeout_s t = { t with sat_timeout_s }
  let with_tt_budget tt_budget t = { t with tt_budget }
  let with_guess_rounds guess_rounds t = { t with guess_rounds }
  let with_jobs jobs t = { t with jobs }
  let with_solver_mode solver_mode t = { t with solver_mode }

  let json =
    let dflt name k proj = Json.with_default name k (proj default) proj in
    let solver_mode =
      Json.enum
        [ ("incremental", Sat_attack.Incremental); ("scratch", Sat_attack.Scratch) ]
    in
    let brute_max_bits = Json.(within "in [0, 62]" (fun b -> 0 <= b && b <= 62) int) in
    Json.(
      record "harness config"
        (let+ sat_timeout_s = dflt "sat_timeout_s" duration (fun t -> t.sat_timeout_s)
         and+ seq_timeout_s = opt "seq_timeout_s" duration (fun t -> t.seq_timeout_s)
         and+ tt_budget = dflt "tt_budget" nat (fun t -> t.tt_budget)
         and+ guess_rounds = dflt "guess_rounds" nat (fun t -> t.guess_rounds)
         and+ brute_max_bits =
           dflt "brute_max_bits" brute_max_bits (fun t -> t.brute_max_bits)
         and+ seq_frames =
           dflt "seq_frames" (within "at least 1" (fun n -> n >= 1) int) (fun t ->
               t.seq_frames)
         and+ seed = dflt "seed" int (fun t -> t.seed)
         and+ jobs = dflt "jobs" int (fun t -> t.jobs)
         and+ solver_mode = dflt "solver_mode" solver_mode (fun t -> t.solver_mode) in
         { sat_timeout_s; seq_timeout_s; tt_budget; guess_rounds; brute_max_bits;
           seq_frames; seed; jobs; solver_mode }))
end

let resisted attack detail =
  {
    attack;
    verdict = Resisted;
    seconds = 0.;
    oracle_queries = 0;
    detail;
    sat_stats = None;
  }

(* Every attack runs under the wall-clock budget.  A zero (or negative)
   budget means "don't even start": the attacker got no CPU, so the
   design trivially resisted. *)
let budgeted ~budget attack f =
  if budget <= 0. then resisted attack "zero budget" else f ()

(* The SAT attacks take their budget themselves, so that an expiry still
   reports their iterations and solver statistics; the others run under
   a {!Sttc_util.Budget} here. *)
let interruptible ~budget attack f =
  budgeted ~budget attack (fun () ->
      match Sttc_util.Budget.run ~seconds:budget f with
      | Ok entry -> entry
      | Error `Timeout ->
          {
            (resisted attack
               (Printf.sprintf "wall-clock budget (%.1fs) exhausted" budget))
            with
            seconds = budget;
          })

let attack ?(backend = Sttc_backend.Backend.stt) ?(config = Config.default)
    ~circuit ~algorithm hybrid =
  Sttc_obs.Metrics.incr
    ("backend.attack." ^ Sttc_backend.Backend.name backend);
  (* The SAT attackers and brute force know the backend's candidate
     family (Kerckhoffs: only the configuration is secret) and restrict
     their keys to it; the oracle-sampling attacks are encoding-agnostic. *)
  let candidates =
    Sttc_backend.Backend.sat_candidates backend.Sttc_backend.Backend.candidates
      (Sttc_core.Hybrid.foundry_view hybrid)
      (Sttc_core.Hybrid.lut_ids hybrid)
  in
  let {
    Config.sat_timeout_s;
    seq_timeout_s;
    tt_budget;
    guess_rounds;
    brute_max_bits;
    seq_frames;
    seed;
    jobs;
    solver_mode;
  } =
    config
  in
  let seq_timeout_s =
    match seq_timeout_s with Some s -> s | None -> sat_timeout_s
  in
  let sat_entry () =
    budgeted ~budget:sat_timeout_s "sat" @@ fun () ->
    match
      Sat_attack.run ~timeout_s:sat_timeout_s ~candidates ~mode:solver_mode
        hybrid
    with
    | Sat_attack.Broken b ->
        {
          attack = "sat";
          verdict =
            (if Sat_attack.verify_break hybrid b.bitstream then
               Recovered
             else Partial 0.);
          seconds = b.seconds;
          oracle_queries = b.queries;
          detail = Printf.sprintf "%d iterations" b.iterations;
          sat_stats = Some (snapshot_of_sat_stats b.stats);
        }
    | Sat_attack.Exhausted e ->
        {
          (resisted "sat" e.reason) with
          seconds = e.seconds;
          sat_stats = Some (snapshot_of_sat_stats e.stats);
        }
  in
  let tt_entry () =
    interruptible ~budget:sat_timeout_s "truth-table" (fun () ->
        let r = Tt_attack.run ~budget_patterns:tt_budget ~seed hybrid in
        {
          attack = "truth-table";
          verdict =
            (if r.Tt_attack.resolution >= 1.0 then Recovered
             else Partial r.Tt_attack.resolution);
          seconds = r.Tt_attack.seconds;
          oracle_queries = r.Tt_attack.oracle_queries;
          detail =
            Printf.sprintf "%d/%d LUTs fully resolved"
              r.Tt_attack.fully_resolved r.Tt_attack.lut_count;
          sat_stats = None;
        })
  in
  let tt_atpg_entry () =
    interruptible ~budget:sat_timeout_s "tt-atpg" (fun () ->
        let r =
          Tt_attack.run ~budget_patterns:(tt_budget / 4) ~targeted:true ~seed
            hybrid
        in
        {
          attack = "tt-atpg";
          verdict =
            (if r.Tt_attack.functional_resolution >= 1.0 then Recovered
             else Partial r.Tt_attack.functional_resolution);
          seconds = r.Tt_attack.seconds;
          oracle_queries = r.Tt_attack.oracle_queries;
          detail =
            Printf.sprintf "%.0f%% functional (%.0f%% raw)"
              (100. *. r.Tt_attack.functional_resolution)
              (100. *. r.Tt_attack.resolution);
          sat_stats = None;
        })
  in
  let guess_entry () =
    interruptible ~budget:sat_timeout_s "hill-climb" (fun () ->
        let r = Guess_attack.run ~rounds:guess_rounds ~seed hybrid in
        {
          attack = "hill-climb";
          verdict =
            (if r.Guess_attack.recovered then Recovered
             else Partial r.Guess_attack.agreement);
          seconds = r.Guess_attack.seconds;
          oracle_queries = r.Guess_attack.oracle_queries;
          detail =
            Printf.sprintf "%.1f%% probe agreement"
              (100. *. r.Guess_attack.agreement);
          sat_stats = None;
        })
  in
  let brute_entry () =
    interruptible ~budget:sat_timeout_s "brute-force" (fun () ->
        match Brute_force.run ~max_bits:brute_max_bits ~seed ~candidates hybrid with
        | Brute_force.Broken b ->
            {
              attack = "brute-force";
              verdict = Recovered;
              seconds = b.seconds;
              oracle_queries = 0;
              detail =
                Printf.sprintf "%s candidates tested"
                  (Lognum.to_string b.candidates_tested);
              sat_stats = None;
            }
        | Brute_force.Infeasible i ->
            {
              attack = "brute-force";
              verdict = Resisted;
              seconds = 0.;
              oracle_queries = 0;
              detail =
                Printf.sprintf "space %s, ~%s years at %.0f cand/s"
                  (Lognum.to_string i.search_space)
                  (Lognum.to_string i.projected_years)
                  i.tested_rate_per_s;
              sat_stats = None;
            })
  in
  let seq_entry () =
    budgeted ~budget:seq_timeout_s "sat-seq" @@ fun () ->
    match
      Sat_attack.run_sequential ~frames:seq_frames ~timeout_s:seq_timeout_s
        ~candidates ~mode:solver_mode hybrid
    with
    | Sat_attack.Broken b ->
        {
          attack = "sat-seq";
          verdict = Recovered;
          seconds = b.seconds;
          oracle_queries = b.queries;
          detail =
            Printf.sprintf "%d iterations, %d-cycle sequences" b.iterations
              seq_frames;
          sat_stats = Some (snapshot_of_sat_stats b.stats);
        }
    | Sat_attack.Exhausted e ->
        {
          (resisted "sat-seq" e.reason) with
          seconds = e.seconds;
          sat_stats = Some (snapshot_of_sat_stats e.stats);
        }
  in
  let instrumented name f () =
    Sttc_obs.Span.with_ "harness.attack" ~cat:"attack"
      ~attrs:[ ("attack", name); ("circuit", circuit) ]
      (fun () ->
        let e = f () in
        Sttc_obs.Metrics.(
          incr "harness.attacks";
          incr ~by:e.oracle_queries "harness.oracle_queries";
          observe "harness.attack_seconds" e.seconds);
        e)
  in
  let attacks =
    [
      instrumented "sat" sat_entry;
      instrumented "sat-seq" seq_entry;
      instrumented "truth-table" tt_entry;
      instrumented "tt-atpg" tt_atpg_entry;
      instrumented "hill-climb" guess_entry;
      instrumented "brute-force" brute_entry;
    ]
  in
  (* the attacks may read the hybrid's three netlist views from several
     domains: force their lazy topology caches first *)
  List.iter Sttc_netlist.Netlist.warm
    [
      Sttc_core.Hybrid.original hybrid;
      Sttc_core.Hybrid.programmed hybrid;
      Sttc_core.Hybrid.foundry_view hybrid;
    ];
  let entries = Sttc_util.Pool.map ~jobs (fun f -> f ()) attacks in
  {
    circuit;
    algorithm;
    lut_count = Sttc_core.Hybrid.lut_count hybrid;
    entries;
  }

let verdict_string = function
  | Recovered -> "RECOVERED"
  | Partial f -> Printf.sprintf "partial %.0f%%" (100. *. f)
  | Resisted -> "resisted"

let pp_campaign fmt c =
  Format.fprintf fmt "%s / %s (%d LUTs):@\n" c.circuit c.algorithm c.lut_count;
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-12s %-14s %6.2fs %8d queries  %s" e.attack
        (verdict_string e.verdict) e.seconds e.oracle_queries e.detail;
      (match e.sat_stats with
      | Some snap ->
          let c = Sttc_obs.Metrics.counter_value snap in
          let kept =
            match Sttc_obs.Metrics.find snap "sat.kept_clauses" with
            | Some (Sttc_obs.Metrics.Gauge v) -> int_of_float v
            | _ -> 0
          in
          Format.fprintf fmt
            " [%d decisions, %d conflicts, %d learned, %d kept]"
            (c "sat.decisions") (c "sat.conflicts") (c "sat.learned") kept
      | None -> ());
      Format.fprintf fmt "@\n")
    c.entries

let to_table campaigns =
  let t =
    Sttc_util.Table.create
      ~headers:
        [
          ("Circuit", Sttc_util.Table.Left);
          ("Algorithm", Sttc_util.Table.Left);
          ("LUTs", Sttc_util.Table.Right);
          ("Attack", Sttc_util.Table.Left);
          ("Verdict", Sttc_util.Table.Left);
          ("Time (s)", Sttc_util.Table.Right);
          ("Queries", Sttc_util.Table.Right);
          ("Detail", Sttc_util.Table.Left);
        ]
  in
  List.iter
    (fun c ->
      List.iter
        (fun e ->
          Sttc_util.Table.add_row t
            [
              c.circuit;
              c.algorithm;
              string_of_int c.lut_count;
              e.attack;
              verdict_string e.verdict;
              Printf.sprintf "%.2f" e.seconds;
              string_of_int e.oracle_queries;
              e.detail;
            ])
        c.entries;
      Sttc_util.Table.add_separator t)
    campaigns;
  Sttc_util.Table.render t
