(* Tests for the lib/serve subsystem: the Request/Response wire codec
   (round trips and malformed-frame rejection), the Session netlist
   cache (hits return the same parsed value, capacity 0 disables, LRU
   eviction), and the daemon itself — concurrent clients receiving
   byte-identical responses to the offline handler, bounded-queue
   backpressure answering Overloaded instead of hanging, and cache-hit
   accounting surfaced through the stats verb. *)

module Request = Sttc_serve.Request
module Response = Sttc_serve.Response
module Session = Sttc_serve.Session
module Handler = Sttc_serve.Handler
module Server = Sttc_serve.Server
module Client = Sttc_serve.Client
module Flow = Sttc_core.Flow
module Harness = Sttc_attack.Harness
module Manifest = Sttc_campaign.Manifest
module Json = Sttc_obs.Json
module Metrics = Sttc_obs.Metrics
module Obs = Sttc_obs.Obs

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let req ?id ?timeout_s payload = { Request.id; timeout_s; payload }

let s27_text =
  Sttc_netlist.Bench_io.to_string (Sttc_experiments.Runner.build_circuit "s27")

let protect_payload ?(source = Request.Named "s27") ?(seed = 1) () =
  Request.Protect
    {
      source;
      algorithm = Flow.Independent { count = 3 };
      config = Manifest.default_config;
      seed;
      backend = "stt";
      sign_off = false;
      emit_foundry = false;
      emit_bitstream = false;
      emit_verilog = false;
      timing = false;
    }

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sttc-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

(* ---------- request codec ---------- *)

let roundtrip_request r =
  let line = Request.to_string r in
  match Request.of_string line with
  | Error e -> Alcotest.failf "decode failed on %s: %s" line e
  | Ok r' ->
      Alcotest.(check string)
        ("request round trip: " ^ line)
        line (Request.to_string r')

let test_request_roundtrip () =
  roundtrip_request (req ~id:"a1" (protect_payload ()));
  roundtrip_request
    (req ~timeout_s:2.5
       (protect_payload
          ~source:(Request.Inline { name = "s27"; text = s27_text })
          ~seed:7 ()));
  roundtrip_request
    (req
       (Request.Protect
          {
            source = Request.Named "c17";
            algorithm = Flow.Dependent;
            config =
              { Manifest.default_config with label = "hardened"; harden = true };
            seed = 3;
            backend = "stt";
            sign_off = true;
            emit_foundry = true;
            emit_bitstream = true;
            emit_verilog = true;
            timing = true;
          }));
  roundtrip_request
    (req ~id:"atk"
       (Request.Attack
          {
            source = Request.Named "s27";
            algorithm =
              Flow.Parametric
                { Sttc_core.Algorithms.default_parametric with
                  clock_factor = 1.3
                };
            seed = 2;
            backend = "tvd";
            config =
              Harness.Config.(
                default |> with_sat_timeout_s 5. |> with_jobs 2
                |> with_solver_mode Sttc_attack.Sat_attack.Scratch);
            timing = false;
          }));
  roundtrip_request
    (req
       (Request.Lint
          {
            source = Request.Inline { name = "x"; text = s27_text };
            algorithms = [ Flow.Independent { count = 2 }; Flow.Dependent ];
            semantic = true;
            seed = 4;
            fraction = Some 0.25;
            budget = Some 64;
            rules = [ "STR004" ];
            suppress = [ "SEC001" ];
            format = `Json;
          }));
  roundtrip_request (req Request.Stats);
  roundtrip_request (req ~id:"p" (Request.Ping { sleep_s = 0.25 }));
  roundtrip_request (req Request.Shutdown)

let test_request_defaults () =
  match Request.of_string {|{"verb":"protect","netlist":"s27"}|} with
  | Error e -> Alcotest.failf "minimal protect rejected: %s" e
  | Ok { payload = Request.Protect p; id = None; timeout_s = None } ->
      Alcotest.(check int) "default seed" Sttc_experiments.Runner.master_seed
        p.Request.seed;
      Alcotest.(check bool) "default algorithm"
        (p.Request.algorithm = Flow.Independent { count = 5 })
        true
  | Ok _ -> Alcotest.fail "decoded to an unexpected shape"

let test_malformed_frames () =
  let reject label line =
    match Request.of_string line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s was accepted: %s" label line
  in
  reject "truncated JSON" "{\"verb\":\"ping\"";
  reject "non-object" "[1,2,3]";
  reject "missing verb" "{\"netlist\":\"s27\"}";
  reject "unknown verb" {|{"verb":"explode"}|};
  reject "protect without netlist" {|{"verb":"protect"}|};
  reject "bad seed type" {|{"verb":"protect","netlist":"s27","seed":"one"}|};
  reject "bad timeout type" {|{"verb":"ping","timeout_s":"fast"}|};
  reject "bad solver mode"
    {|{"verb":"attack","netlist":"s27","config":{"solver_mode":"quantum"}}|};
  reject "bad lint format" {|{"verb":"lint","netlist":"s27","format":"xml"}|};
  reject "zero sequential frames"
    {|{"verb":"attack","netlist":"s641","algorithm":"dependent","config":{"seq_frames":0}}|};
  reject "brute-force cap past 62 bits"
    {|{"verb":"attack","netlist":"s1196","algorithm":"parametric","config":{"brute_max_bits":100}}|};
  reject "brute-force cap of 64 bits"
    {|{"verb":"attack","netlist":"s27","config":{"brute_max_bits":64}}|};
  (* A wrong-typed field must not fall back to its default, and an
     out-of-range one must not reach the handler, which would answer
     with an internal function's Invalid_argument text: the parse
     refuses each with an error that names the field. *)
  let names field label line =
    match Request.of_string line with
    | Error e ->
        let quoted = Printf.sprintf "%S" field in
        if not (contains e quoted) then
          Alcotest.failf "%s: %S does not name %s" label e quoted
    | Ok _ -> Alcotest.failf "%s was accepted: %s" label line
  in
  names "count" "string count"
    {|{"verb":"protect","netlist":"s27","algorithm":{"name":"independent","count":"3"}}|};
  names "count" "zero count"
    {|{"verb":"protect","netlist":"s27","algorithm":{"name":"independent","count":0}}|};
  names "count" "negative count in a lint list"
    {|{"verb":"lint","netlist":"s27","algorithms":[{"name":"independent","count":-2}]}|};
  names "clock_factor" "string clock factor"
    {|{"verb":"attack","netlist":"s27","algorithm":{"name":"parametric","clock_factor":"big"}}|};
  names "fraction" "string config fraction"
    {|{"verb":"protect","netlist":"s27","config":{"fraction":"0.5"}}|};
  names "fraction" "config fraction past 1"
    {|{"verb":"protect","netlist":"s27","config":{"fraction":7}}|};
  names "fraction" "zero config fraction"
    {|{"verb":"protect","netlist":"s27","config":{"fraction":0}}|};
  names "fraction" "lint fraction past 1"
    {|{"verb":"lint","netlist":"s27","fraction":7}|};
  names "name" "numeric inline netlist name"
    {|{"verb":"protect","netlist":{"name":5,"bench":"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n"}}|};
  names "id" "numeric id" {|{"verb":"ping","id":5}|};
  (* Each answered ok before every table refused keys outside it and
     ranged its numbers: the misspelt config key ran the default
     fraction (s27 protected with M=5), and both factors below 1 selected
     the same set (M=1, perf 0.00%). *)
  names "fracton" "misspelt config key"
    {|{"verb":"protect","netlist":"s27","config":{"fracton":0.5},"seed":1}|};
  names "clock_factor" "negative clock factor"
    {|{"verb":"protect","netlist":"s27","algorithm":{"name":"parametric","clock_factor":-1},"seed":1}|};
  names "clock_factor" "clock factor below 1"
    {|{"verb":"protect","netlist":"s27","algorithm":{"name":"parametric","clock_factor":0.99},"seed":1}|};
  names "clock_factor" "clock factor on an independent algorithm"
    {|{"verb":"protect","netlist":"s27","algorithm":{"name":"independent","clock_factor":1.5}}|};
  names "timeout_s" "negative request budget" {|{"verb":"ping","timeout_s":-1}|};
  names "sleep_s" "negative ping sleep" {|{"verb":"ping","sleep_s":-1}|};
  names "budget" "negative lint budget"
    {|{"verb":"lint","netlist":"s27","budget":-1}|};
  names "sat_timeout_s" "negative attack budget"
    {|{"verb":"attack","netlist":"s27","config":{"sat_timeout_s":-1}}|};
  names "netlist" "extra key on a light verb" {|{"verb":"stats","netlist":"s27"}|}

(* ---------- response codec ---------- *)

let roundtrip_response r =
  let line = Response.to_string r in
  match Response.of_string line with
  | Error e -> Alcotest.failf "decode failed on %s: %s" line e
  | Ok r' ->
      Alcotest.(check string)
        ("response round trip: " ^ line)
        line (Response.to_string r')

let test_response_roundtrip () =
  roundtrip_response
    (Response.Ok
       {
         id = Some "a1";
         payload =
           Response.Protect
             {
               report = "independent on s27\n";
               foundry_bench = Some "INPUT(a)\n";
               bitstream = Some "1 0110\n";
               programming_cost = Some "cost\n";
               verilog = None;
               sign_off = Some true;
             };
       });
  roundtrip_response
    (Response.Ok
       {
         id = None;
         payload = Response.Lint { rendered = "clean\n"; exit_code = 0 };
       });
  roundtrip_response (Response.Ok { id = None; payload = Response.Pong });
  roundtrip_response
    (Response.Ok { id = Some "s"; payload = Response.Shutting_down });
  roundtrip_response
    (Response.Error { id = Some "x"; message = "bad request: no verb" });
  roundtrip_response (Response.Overloaded { id = None })

let test_campaign_codec () =
  Obs.reset ();
  Obs.enable ();
  Metrics.incr ~by:42 "sat.decisions";
  Metrics.incr ~by:7 "sat.conflicts";
  let stats = Metrics.snapshot () in
  Obs.disable ();
  Obs.reset ();
  let campaign =
    {
      Harness.circuit = "s27";
      algorithm = "independent";
      lut_count = 3;
      entries =
        [
          {
            Harness.attack = "sat";
            verdict = Harness.Recovered;
            seconds = 0.25;
            oracle_queries = 11;
            detail = "11 iterations";
            sat_stats = Some stats;
          };
          {
            Harness.attack = "truth-table";
            verdict = Harness.Partial 0.75;
            seconds = 1.5;
            oracle_queries = 14;
            detail = "3/4 LUTs";
            sat_stats = None;
          };
          {
            Harness.attack = "brute-force";
            verdict = Harness.Resisted;
            seconds = 0.;
            oracle_queries = 0;
            detail = "space too large";
            sat_stats = None;
          };
        ];
    }
  in
  roundtrip_response
    (Response.Ok
       {
         id = Some "a";
         payload = Response.Attack { campaign; rendered = "campaign\n" };
       })

(* ---------- generated round trips ---------- *)

(* Values of every record the wire carries, each field inside its range.
   Numbers are quarters, which the printer's %.12g renders exactly. *)
module Gen_values = struct
  open QCheck2.Gen

  let quarter lo hi = map (fun q -> float_of_int q /. 4.) (int_range (4 * lo) (4 * hi))
  let name = oneofl [ "s27"; "c17"; "x"; ""; "a \"b\"\n" ]
  let text = oneofl [ "INPUT(a)\nOUTPUT(a)\n"; "line\twith \\ and \"" ]

  let algorithm =
    oneof
      [
        pure Flow.Dependent;
        map (fun count -> Flow.Independent { count }) (int_range 1 64);
        map
          (fun clock_factor ->
            Flow.Parametric
              { Sttc_core.Algorithms.default_parametric with clock_factor })
          (quarter 1 8);
      ]

  let source =
    oneof
      [
        map (fun n -> Request.Named n) name;
        map2 (fun name text -> Request.Inline { name; text }) name text;
      ]

  let fraction = map (fun q -> float_of_int q /. 64.) (int_range 1 64)

  let config =
    map3
      (fun label fraction harden -> { Manifest.label; fraction; harden })
      name (opt fraction) bool

  let harness =
    let open Harness.Config in
    map
      (fun (((sat, seq, tt), (guess, brute, frames)), (seed, jobs, scratch)) ->
        {
          sat_timeout_s = sat;
          seq_timeout_s = seq;
          tt_budget = tt;
          guess_rounds = guess;
          brute_max_bits = brute;
          seq_frames = frames;
          seed;
          jobs;
          solver_mode =
            (if scratch then Sttc_attack.Sat_attack.Scratch
             else Sttc_attack.Sat_attack.Incremental);
        })
      (pair
         (pair
            (triple (quarter 0 60) (opt (quarter 0 60)) nat)
            (triple nat (int_range 0 62) (int_range 1 8)))
         (triple int (int_range 1 4) bool))

  let backend = oneofl [ "stt"; "tvd" ]

  let protect =
    map
      (fun ((source, algorithm, config), (seed, backend), flags) ->
        match flags with
        | [ sign_off; emit_foundry; emit_bitstream; emit_verilog; timing ] ->
            Request.Protect
              {
                source;
                algorithm;
                config;
                seed;
                backend;
                sign_off;
                emit_foundry;
                emit_bitstream;
                emit_verilog;
                timing;
              }
        | _ -> assert false)
      (triple
         (triple source algorithm config)
         (pair int backend)
         (list_repeat 5 bool))

  let attack =
    map
      (fun ((source, algorithm, seed), (backend, config, timing)) ->
        Request.Attack { source; algorithm; seed; backend; config; timing })
      (pair (triple source algorithm int) (triple backend harness bool))

  let rules = list_size (int_bound 2) (oneofl [ "STR004"; "SEC001" ])

  let lint =
    map
      (fun ((source, algorithms, semantic), (seed, fraction, budget), (rules, suppress, json)) ->
        Request.Lint
          {
            source;
            algorithms;
            semantic;
            seed;
            fraction;
            budget;
            rules;
            suppress;
            format = (if json then `Json else `Text);
          })
      (triple
         (triple source (list_size (int_bound 3) algorithm) bool)
         (triple int (opt fraction) (opt nat))
         (triple rules rules bool))

  let request =
    map3
      (fun id timeout_s payload -> { Request.id; timeout_s; payload })
      (opt name) (opt (quarter 0 60))
      (oneof
         [
           protect;
           attack;
           lint;
           pure Request.Stats;
           map (fun sleep_s -> Request.Ping { sleep_s }) (quarter 0 2);
           pure Request.Shutdown;
         ])

  (* canonical histogram bucket bounds, read off a live snapshot *)
  let bounds =
    Obs.reset ();
    Obs.enable ();
    List.iter (Metrics.observe "h") [ 1e-3; 0.5; 7.; 1e3 ];
    let snap = Metrics.snapshot () in
    Obs.disable ();
    Obs.reset ();
    match Metrics.find snap "h" with
    | Some (Metrics.Histogram s) ->
        List.filter_map (fun (le, c) -> if c > 0 then Some le else None) s.buckets
    | _ -> assert false

  let point =
    oneof
      [
        map (fun n -> Metrics.Counter n) nat;
        map (fun v -> Metrics.Gauge v) (quarter (-10) 10);
        map
          (fun ((count, sum, min), (max, overflow, counts)) ->
            Metrics.Histogram
              {
                count;
                sum;
                min;
                max;
                overflow;
                buckets =
                  List.filteri (fun i _ -> i < List.length counts) bounds
                  |> List.mapi (fun i le -> (le, List.nth counts i));
              })
          (pair
             (triple nat (quarter 0 100) (quarter 0 10))
             (triple (quarter 0 100) nat
                (list_size (int_bound (List.length bounds)) (int_range 1 9))));
      ]

  let snapshot =
    map
      (fun points ->
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) points)
      (list_size (int_bound 4) (pair (oneofl [ "a.x"; "b"; "sat.conflicts" ]) point))

  let entry =
    map
      (fun ((attack, verdict, seconds), (oracle_queries, detail, sat_stats)) ->
        { Harness.attack; verdict; seconds; oracle_queries; detail; sat_stats })
      (pair
         (triple name
            (oneof
               [
                 pure Harness.Recovered;
                 pure Harness.Resisted;
                 map (fun f -> Harness.Partial f) (quarter 0 1);
               ])
            (quarter 0 100))
         (triple nat name (opt snapshot)))

  let campaign =
    map
      (fun ((circuit, algorithm), (lut_count, entries)) ->
        { Harness.circuit; algorithm; lut_count; entries })
      (pair (pair name name) (pair nat (list_size (int_bound 3) entry)))

  let response =
    let ok payload = map2 (fun id payload -> Response.Ok { id; payload }) (opt name) payload in
    let s = opt name in
    oneof
      [
        ok
          (map
             (fun ((report, foundry_bench, bitstream), (programming_cost, verilog, sign_off)) ->
               Response.Protect
                 { report; foundry_bench; bitstream; programming_cost; verilog; sign_off })
             (pair (triple name s s) (triple s s (opt bool))));
        ok (map2 (fun campaign rendered -> Response.Attack { campaign; rendered }) campaign name);
        ok (map2 (fun rendered exit_code -> Response.Lint { rendered; exit_code }) name int);
        ok (map (fun snap -> Response.Stats snap) snapshot);
        ok (pure Response.Pong);
        ok (pure Response.Shutting_down);
        map2 (fun id message -> Response.Error { id; message }) (opt name) name;
        map (fun id -> Response.Overloaded { id }) (opt name);
      ]
end

let prop_round_trips =
  let same what decode x =
    match decode with
    | Ok y when y = x -> true
    | Ok _ -> QCheck2.Test.fail_reportf "%s decodes to another value" what
    | Error e -> QCheck2.Test.fail_reportf "%s refused: %s" what e
  in
  let json record x = Json.decode record (Json.encode record x) in
  QCheck2.Test.make ~name:"generated values decode to themselves" ~count:300
    QCheck2.Gen.(
      triple
        (pair Gen_values.request Gen_values.response)
        (pair Gen_values.harness Gen_values.config)
        (pair Gen_values.algorithm Gen_values.snapshot))
    (fun ((request, response), (harness, config), (algorithm, snapshot)) ->
      same "request" (Request.of_string (Request.to_string request)) request
      && same "response" (Response.of_string (Response.to_string response)) response
      && same "harness config" (json Harness.Config.json harness) harness
      && same "protect config" (json Manifest.config_json config) config
      && same "algorithm"
           (Flow.algorithm_json.read Fun.id (Flow.algorithm_json.write algorithm))
           algorithm
      && same "metrics" (Metrics.of_json (Metrics.to_json snapshot)) snapshot)

(* ---------- session cache ---------- *)

let test_session_cache_identity () =
  let s = Session.create ~capacity:4 () in
  let source = Request.Inline { name = "s27"; text = s27_text } in
  match (Session.netlist s source, Session.netlist s source) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "second lookup returns the cached value" true
        (a == b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e

let test_session_capacity_zero () =
  let s = Session.create ~capacity:0 () in
  let source = Request.Inline { name = "s27"; text = s27_text } in
  match (Session.netlist s source, Session.netlist s source) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "capacity 0 re-parses every time" false (a == b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e

let test_session_eviction () =
  let s = Session.create ~capacity:1 () in
  let a = Request.Inline { name = "a"; text = s27_text } in
  let b = Request.Named "s27" in
  let first = Result.get_ok (Session.netlist s a) in
  ignore (Session.netlist s b);
  (* [a] was evicted to make room for [b]; a re-request re-parses *)
  let again = Result.get_ok (Session.netlist s a) in
  Alcotest.(check bool) "evicted entry is re-parsed" false (first == again)

let test_session_bad_source () =
  let s = Session.create () in
  (match Session.netlist s (Request.Named "nonexistent") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown named circuit accepted");
  match
    Session.netlist s (Request.Inline { name = "bad"; text = "INPUT((\n" })
  with
  | Error m ->
      Alcotest.(check bool)
        ("parse error carries design name: " ^ m)
        true
        (String.length m >= 4 && String.sub m 0 4 = "bad:")
  | Ok _ -> Alcotest.fail "garbage netlist accepted"

(* A second protect of the same named netlist (another seed) reuses the
   entry's memoized PPA baseline, and answers exactly what a session that
   memoizes nothing answers. *)
let test_session_baseline_memo () =
  let protect ?(backend = "stt") seed =
    req
      (Request.Protect
         {
           source = Request.Named "s641";
           algorithm = Flow.Dependent;
           config = Manifest.default_config;
           seed;
           backend;
           sign_off = false;
           emit_foundry = true;
           emit_bitstream = true;
           emit_verilog = false;
           timing = false;
         })
  in
  let answer session r = Response.to_string (Handler.handle session r) in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let warm = Session.create ~capacity:4 () in
      ignore (answer warm (protect 1));
      let hits () =
        Metrics.counter_value (Metrics.snapshot ()) "serve.sta_cache_hits"
      in
      let before = hits () in
      List.iter
        (fun (backend, r) ->
          let cached = answer warm r in
          Alcotest.(check string)
            (backend ^ " reply as from a capacity-0 session")
            (answer (Session.create ~capacity:0 ()) r)
            cached)
        [ ("stt", protect 2); ("tvd", protect ~backend:"tvd" 3) ];
      Alcotest.(check int) "two memo hits" (before + 2) (hits ()))

(* A manifest config's [harden] means one hardening on every path: the
   serve protect verb (and so [sttc protect --harden]) and the campaign
   worker's unit, [Runner.run_unit ~hardening:Flow.hardened], ship the
   same bitstream bytes for s641 under dependent selection at seed 3. *)
let test_hardened_protect_matches_unit () =
  let served harden =
    let r =
      req
        (Request.Protect
           {
             source = Request.Named "s641";
             algorithm = Flow.Dependent;
             config = { Manifest.default_config with harden };
             seed = 3;
             backend = "stt";
             sign_off = false;
             emit_foundry = false;
             emit_bitstream = true;
             emit_verilog = false;
             timing = false;
           })
    in
    match Handler.handle (Session.create ()) r with
    | Response.Ok { payload = Response.Protect { bitstream = Some b; _ }; _ } ->
        b
    | other -> Alcotest.failf "protect failed: %s" (Response.to_string other)
  in
  let unit_bitstream =
    match
      Sttc_experiments.Runner.run_unit ~hardening:Flow.hardened ~seed:3
        ~benchmark:"s641" Flow.Dependent
    with
    | Ok r ->
        Sttc_core.Provision.(to_string (of_hybrid r.Flow.hybrid))
    | Error e -> Alcotest.failf "run_unit failed: %s" e
  in
  let hardened = served true in
  Alcotest.(check string) "serve == campaign unit" unit_bitstream hardened;
  Alcotest.(check bool) "hardening changes the bitstream" true
    (hardened <> served false)

(* ---------- daemon integration ---------- *)

let start_server cfg =
  let socket = Server.Config.(cfg.socket) in
  if Sys.file_exists socket then Sys.remove socket;
  let d = Domain.spawn (fun () -> Server.run cfg) in
  let rec await tries =
    if Sys.file_exists socket then ()
    else if tries = 0 then Alcotest.failf "daemon never bound %s" socket
    else begin
      Unix.sleepf 0.02;
      await (tries - 1)
    end
  in
  await 250;
  d

let shutdown_server socket d =
  (match
     Client.with_connection socket (fun c ->
         Client.request c (req Request.Shutdown))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shutdown failed: %s" e);
  Domain.join d;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* the same deterministic request must produce the same bytes from the
   daemon as from the offline handler — the one-API-two-transports
   contract the CLI relies on *)
let test_concurrent_byte_identity () =
  let mix c =
    [
      req ~id:(Printf.sprintf "%d-protect" c) (protect_payload ());
      req
        ~id:(Printf.sprintf "%d-inline" c)
        (protect_payload
           ~source:(Request.Inline { name = "s27"; text = s27_text })
           ~seed:(c + 1) ());
      req
        ~id:(Printf.sprintf "%d-lint" c)
        (Request.Lint
           {
             source = Request.Inline { name = "s27"; text = s27_text };
             algorithms = [ Flow.Independent { count = 2 } ];
             semantic = false;
             seed = 1;
             fraction = None;
             budget = None;
             rules = [];
             suppress = [];
             format = `Json;
           });
      req ~id:(Printf.sprintf "%d-ping" c) (Request.Ping { sleep_s = 0. });
    ]
  in
  let offline c =
    let session = Session.create () in
    List.map (fun r -> Response.to_string (Handler.handle session r)) (mix c)
  in
  let socket = fresh_socket () in
  let d =
    start_server
      Server.Config.(
        default |> with_socket socket |> with_jobs 2 |> with_queue_capacity 64)
  in
  let clients = [ 0; 1; 2; 3 ] in
  let domains =
    List.map
      (fun c ->
        Domain.spawn (fun () ->
            Client.with_connection socket (fun conn ->
                let rec go acc = function
                  | [] -> Ok (List.rev acc)
                  | r :: rest -> (
                      match Client.request conn r with
                      | Error _ as e -> e
                      | Ok resp -> go (Response.to_string resp :: acc) rest)
                in
                go [] (mix c))))
      clients
  in
  let got = List.map Domain.join domains in
  shutdown_server socket d;
  List.iter2
    (fun c result ->
      match result with
      | Error e -> Alcotest.failf "client %d failed: %s" c e
      | Ok lines ->
          List.iter2
            (Alcotest.(check string)
               (Printf.sprintf "client %d matches offline bytes" c))
            (offline c) lines)
    clients got

(* a full queue must answer Overloaded immediately — clients never hang *)
let test_backpressure_overloaded () =
  let socket = fresh_socket () in
  let d =
    start_server
      Server.Config.(
        default |> with_socket socket |> with_jobs 1 |> with_queue_capacity 1)
  in
  let result =
    Client.with_connection socket (fun conn ->
        let send i s =
          match
            Client.send_raw conn
              (Request.to_string
                 (req ~id:(string_of_int i) (Request.Ping { sleep_s = s })))
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send %d failed: %s" i e
        in
        (* occupy the single worker, give intake time to dispatch it,
           then flood: queue holds one, the rest must bounce *)
        send 0 0.5;
        Unix.sleepf 0.1;
        for i = 1 to 6 do
          send i 0.
        done;
        let rec collect acc n =
          if n = 0 then Ok acc
          else
            match Client.recv_line conn with
            | Error _ as e -> e
            | Ok line -> (
                match Response.of_string line with
                | Error e -> Alcotest.failf "bad response frame %s: %s" line e
                | Ok r -> collect (r :: acc) (n - 1))
        in
        collect [] 7)
  in
  match result with
  | Error e ->
      (try ignore (shutdown_server socket d) with _ -> ());
      Alcotest.failf "backpressure client failed: %s" e
  | Ok responses ->
      shutdown_server socket d;
      let overloaded =
        List.length
          (List.filter
             (function Response.Overloaded _ -> true | _ -> false)
             responses)
      in
      let pongs =
        List.length
          (List.filter
             (function
               | Response.Ok { payload = Response.Pong; _ } -> true
               | _ -> false)
             responses)
      in
      Alcotest.(check int) "every request answered" 7 (List.length responses);
      Alcotest.(check bool) "at least one Overloaded" true (overloaded >= 1);
      Alcotest.(check bool) "busy + queued pings still answered" true
        (pongs >= 2);
      Alcotest.(check int) "no other outcomes" 7 (overloaded + pongs)

(* repeated requests for the same netlist hit the warm cache, and the
   stats verb exposes the count *)
let test_cache_hits_via_stats () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let socket = fresh_socket () in
      let d =
        start_server
          Server.Config.(
            default |> with_socket socket |> with_jobs 1
            |> with_cache_capacity 8)
      in
      let result =
        Client.with_connection socket (fun conn ->
            let p =
              req
                (protect_payload
                   ~source:(Request.Inline { name = "s27"; text = s27_text })
                   ())
            in
            match (Client.request conn p, Client.request conn p) with
            | Ok (Response.Ok _), Ok (Response.Ok _) ->
                Client.request conn (req Request.Stats)
            | (Error e, _ | _, Error e) -> Error e
            | _ -> Error "protect did not succeed")
      in
      match result with
      | Error e ->
          (try ignore (shutdown_server socket d) with _ -> ());
          Alcotest.failf "cache client failed: %s" e
      | Ok (Response.Ok { payload = Response.Stats snap; _ }) ->
          shutdown_server socket d;
          Alcotest.(check bool) "at least one cache hit" true
            (Metrics.counter_value snap "serve.cache_hits" >= 1);
          Alcotest.(check bool) "first protect missed the base-STA memo" true
            (Metrics.counter_value snap "serve.sta_cache_misses" >= 1);
          Alcotest.(check bool) "second protect hit the base-STA memo" true
            (Metrics.counter_value snap "serve.sta_cache_hits" >= 1);
          Alcotest.(check bool) "requests counted" true
            (Metrics.counter_value snap "serve.requests" >= 2)
      | Ok _ ->
          (try ignore (shutdown_server socket d) with _ -> ());
          Alcotest.fail "stats verb returned an unexpected payload")

(* A request budget stops the attack verb on time on both transports:
   the in-process handler on the main domain and a daemon worker
   domain answer with the same error, well inside the budget's slack. *)
let test_attack_request_budget () =
  let request =
    req ~id:"slow" ~timeout_s:0.5
      (Request.Attack
         {
           source = Request.Named "s641";
           algorithm = Flow.Independent { count = 5 };
           seed = 1;
           backend = "stt";
           config = Harness.Config.default;
           timing = false;
         })
  in
  let timed what f =
    let t0 = Sttc_util.Pool.now_s () in
    let line = f () in
    let dt = Sttc_util.Pool.now_s () -. t0 in
    if dt > 1.5 then Alcotest.failf "%s answered after %.2fs" what dt;
    line
  in
  let offline =
    timed "offline handler" (fun () ->
        Response.to_string (Handler.handle (Session.create ()) request))
  in
  Alcotest.(check string) "offline error text"
    {|{"id":"slow","status":"error","message":"request budget (0.5s) exhausted"}|}
    offline;
  let socket = fresh_socket () in
  let d =
    start_server Server.Config.(default |> with_socket socket |> with_jobs 1)
  in
  let daemon =
    timed "daemon worker" (fun () ->
        match
          Client.with_connection socket (fun c -> Client.request c request)
        with
        | Ok r -> Response.to_string r
        | Error e -> Alcotest.failf "daemon request failed: %s" e)
  in
  shutdown_server socket d;
  Alcotest.(check string) "daemon matches offline" offline daemon

(* ---------- total handler ---------- *)

(* Keys no table holds, and a frame without them *)
let typos = [ "fracton"; "sede"; "clock_facter"; "timout_s" ]

(* [keep k] decides on each key of the frame as read: of a repeated key
   only the first counts *)
let rec filter_keys keep = function
  | Json.Obj kvs ->
      let first i k = List.find_index (fun (k', _) -> k' = k) kvs = Some i in
      Json.Obj
        (List.filteri (fun i (k, _) -> keep k && first i k) kvs
        |> List.map (fun (k, v) -> (k, filter_keys keep v)))
  | Json.List l -> Json.List (List.map (filter_keys keep) l)
  | j -> j

let as_read = filter_keys (fun _ -> true)
let without_typos = filter_keys (fun k -> not (List.mem k typos))

(* Frames drawn from the request grammar: every verb, field values at
   and past their ranges, a misspelt key now and then, inline .bench text with lines dropped,
   duplicated, swapped or truncated, and frames cut short.  One frame
   in five also gives some fields a value of the wrong type.  Heavy
   verbs always carry a short request budget, so a case ends within
   about a second. *)
let frame_gen =
  let open QCheck2.Gen in
  let int_v =
    map (fun i -> Json.Int i) (oneofl [ -1; 0; 1; 2; 3; 64; max_int; min_int ])
  in
  let num_v =
    oneof
      [
        int_v;
        map
          (fun f -> Json.Float f)
          (oneofl [ -1.; 0.; 0.01; 0.2; 1.; 2.; 1e308; -1e308 ]);
      ]
  in
  (* mostly inside [ok], sometimes just past it *)
  let ok_or_past ok past =
    frequency
      (List.map (fun v -> (6, pure v)) ok @ List.map (fun v -> (1, pure v)) past)
  in
  let ranged ok past = map (fun i -> Json.Int i) (ok_or_past ok past) in
  let named ok past = map (fun s -> Json.String s) (ok_or_past ok past) in
  let bool_v = map (fun b -> Json.Bool b) bool in
  let junk =
    oneofl
      [ Json.Null; Json.Bool true; Json.String "x"; Json.List []; Json.Obj [] ]
  in
  (* s27 and the smallest shapes: gateless, one gate, one state loop *)
  let bases =
    List.map
      (String.split_on_char '\n')
      [
        s27_text;
        "INPUT(a)\nOUTPUT(a)\n";
        "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
        "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = AND(a, q)\n";
      ]
  in
  let line = int_bound 24 in
  let edit =
    oneof
      [
        map (fun i l -> List.filteri (fun j _ -> j <> i) l) line;
        map
          (fun i l ->
            List.concat
              (List.mapi (fun j x -> if j = i then [ x; x ] else [ x ]) l))
          line;
        map2
          (fun i k l ->
            let a = Array.of_list l in
            let n = Array.length a in
            let i = i mod n and k = k mod n in
            let t = a.(i) in
            a.(i) <- a.(k);
            a.(k) <- t;
            Array.to_list a)
          line line;
        map2
          (fun i cut l ->
            List.mapi
              (fun j x ->
                if j = i then String.sub x 0 (min cut (String.length x)) else x)
              l)
          line (int_bound 12);
      ]
  in
  let bench =
    map2
      (fun base edits ->
        String.concat "\n"
          (List.fold_left (fun l e -> if l = [] then l else e l) base edits))
      (frequency [ (3, pure (List.hd bases)); (1, oneofl bases) ])
      (list_size (int_range 0 3) edit)
  in
  (* now and then an object carries a misspelt key *)
  let typo =
    frequency
      [ (12, pure []); (1, map (fun k -> [ (k, Json.Int 1) ]) (oneofl typos)) ]
  in
  let request corrupt =
    (* a field is absent, drawn from [g], or (in a corrupt frame) now
       and then of the wrong type *)
    let field ?(absent = 3) name g =
      frequency
        [
          (absent, pure []);
          (16, map (fun v -> [ (name, v) ]) g);
          ((if corrupt then 2 else 0), map (fun v -> [ (name, v) ]) junk);
        ]
    in
    let obj fields =
      map (fun fs -> Json.Obj (List.concat fs)) (flatten_l fields)
    in
    let netlist =
      frequency
        [
          (2, named [ "s27" ] [ "nope"; "" ]);
          ( 12,
            obj
              [
                field "name" (named [ "m"; "s27" ] [ "" ]);
                map (fun b -> [ ("bench", Json.String b) ]) bench;
                typo;
              ] );
          (1, obj [ field ~absent:0 "name" (named [ "s27" ] [ "nope" ]) ]);
        ]
    in
    (* each name's object carries its own keys *)
    let algorithm =
      frequency
        [
          (2, named [ "independent"; "dependent"; "parametric" ] [ "other" ]);
          ( 1,
            obj
              [
                field ~absent:0 "name" (named [ "independent" ] []);
                field "count" int_v;
                typo;
              ] );
          ( 1,
            obj
              [
                field ~absent:0 "name" (named [ "parametric" ] []);
                field "clock_factor" num_v;
                typo;
              ] );
        ]
    in
    let source = [ field ~absent:0 "netlist" netlist; field "seed" int_v ] in
    let common =
      source
      @ [
          field "algorithm" algorithm;
          field "backend" (named [ "stt"; "tvd" ] [ "sram" ]);
        ]
    in
    let flags names = List.map (fun n -> field n bool_v) names in
    let protect =
      common
      @ [
          field "config"
            (obj [ field "fraction" num_v; field "harden" bool_v; typo ]);
        ]
      @ flags
          [ "sign_off"; "emit_foundry"; "emit_bitstream"; "emit_verilog"; "timing" ]
    in
    let attack =
      common
      @ [
          field "timing" bool_v;
          field "config"
            (obj
               [
                 field "sat_timeout_s" num_v;
                 field "seq_timeout_s" num_v;
                 field "tt_budget" int_v;
                 field "guess_rounds" int_v;
                 field "brute_max_bits" (ranged [ 0; 1; 16; 62 ] [ -1; 63 ]);
                 field "seq_frames" (ranged [ 1; 2 ] [ 0; -1 ]);
                 field "seed" int_v;
                 field "jobs" (ranged [ 1; 2; 3 ] [ 0; -1 ]);
                 field "solver_mode"
                   (named [ "incremental"; "scratch" ] [ "other" ]);
                 typo;
               ]);
        ]
    in
    let rules =
      map
        (fun l -> Json.List l)
        (list_size (int_range 0 2)
           (named [ "STR004"; "SEM001"; "SEC001" ] [ "bogus" ]))
    in
    let lint =
      source
      @ [
          field "algorithms"
            (map (fun l -> Json.List l) (list_size (int_range 0 2) algorithm));
          field "semantic" bool_v;
          field "fraction" num_v;
          field "budget" int_v;
          field "rules" rules;
          field "suppress" rules;
          field "format" (named [ "text"; "json" ] [ "xml" ]);
        ]
    in
    (* the budget bounds a heavy verb; a light one may go without *)
    let budget heavy =
      let seconds =
        map
          (fun f -> [ ("timeout_s", Json.Float f) ])
          (frequencyl [ (1, -1.); (1, 0.); (4, 0.1); (4, 0.3) ])
      in
      if heavy then seconds else oneof [ pure []; seconds ]
    in
    let verb name heavy fields =
      obj
        ([
           field "id" (oneof [ named [ "a"; "" ] []; int_v ]);
           pure [ ("verb", Json.String name) ];
           budget heavy;
         ]
        @ fields @ [ typo ])
    in
    frequency
      [
        (4, verb "protect" true protect);
        (4, verb "attack" true attack);
        (4, verb "lint" true lint);
        ( 1,
          verb "ping" false
            [
              field "sleep_s"
                (map (fun f -> Json.Float f) (oneofl [ -1.; 0.; 0.001 ]));
            ]
        );
        (1, verb "stats" false []);
        (1, verb "shutdown" false []);
        (1, obj [ field "verb" (oneof [ named [] [ "explode" ]; int_v ]) ]);
      ]
  in
  let text =
    map (Json.to_string ~minify:true)
      (frequency [ (4, request false); (1, request true) ])
  in
  frequency
    [
      (19, text);
      ( 1,
        map2
          (fun t cut -> String.sub t 0 (cut mod (String.length t + 1)))
          text nat );
    ]

(* What the daemon does with a frame, short of the socket: parse, then
   handle, then encode the reply. *)
let reply session frame =
  Response.to_string
    (match Request.of_string frame with
    | Error e -> Response.Error { id = None; message = "bad request: " ^ e }
    | Ok request -> Handler.handle session request)

(* A frame with a misspelt key is refused, and when it is the frame's
   only fault the refusal names the key. *)
let typo_refused frame text =
  match Json.of_string frame with
  | Ok j when without_typos j <> as_read j -> (
      let named =
        List.exists
          (fun k -> contains text (Printf.sprintf {|unknown field \"%s\"|} k))
          typos
      in
      match
        ( Request.of_string frame,
          Request.of_string (Json.to_string ~minify:true (without_typos j)) )
      with
      | Ok _, _ -> QCheck2.Test.fail_reportf "misspelt key accepted"
      | Error _, Ok _ when not named ->
          QCheck2.Test.fail_reportf "refusal %s names no misspelt key" text
      | Error _, _ -> true)
  | _ -> true

let prop_handler_total =
  let session = Session.create ~capacity:4 () in
  QCheck2.Test.make ~name:"every frame gets a reply" ~count:200 ~print:Fun.id
    frame_gen (fun frame ->
      match reply session frame with
      | text -> (
          (* the reply decodes, and re-encodes to the same bytes *)
          match Response.of_string text with
          | Ok r when Response.to_string r = text -> typo_refused frame text
          | Ok r ->
              QCheck2.Test.fail_reportf "reply %s re-encodes as %s" text
                (Response.to_string r)
          | Error e -> QCheck2.Test.fail_reportf "reply %s: %s" text e)
      | exception e ->
          QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "request round trips" `Quick
            test_request_roundtrip;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
          Alcotest.test_case "malformed frames rejected" `Quick
            test_malformed_frames;
          Alcotest.test_case "response round trips" `Quick
            test_response_roundtrip;
          Alcotest.test_case "campaign codec" `Quick test_campaign_codec;
          QCheck_alcotest.to_alcotest prop_round_trips;
        ] );
      ( "session",
        [
          Alcotest.test_case "cache identity" `Quick
            test_session_cache_identity;
          Alcotest.test_case "capacity zero" `Quick test_session_capacity_zero;
          Alcotest.test_case "lru eviction" `Quick test_session_eviction;
          Alcotest.test_case "bad sources" `Quick test_session_bad_source;
          Alcotest.test_case "baseline memo" `Quick test_session_baseline_memo;
          Alcotest.test_case "hardened protect matches the campaign unit"
            `Quick test_hardened_protect_matches_unit;
        ] );
      ( "server",
        [
          Alcotest.test_case "concurrent byte identity" `Quick
            test_concurrent_byte_identity;
          Alcotest.test_case "backpressure overloaded" `Quick
            test_backpressure_overloaded;
          Alcotest.test_case "cache hits via stats" `Quick
            test_cache_hits_via_stats;
          Alcotest.test_case "attack request budget" `Quick
            test_attack_request_budget;
        ] );
      ("handler", [ QCheck_alcotest.to_alcotest prop_handler_total ]);
    ]
