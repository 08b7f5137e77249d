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
    {|{"verb":"attack","netlist":"s27","config":{"brute_max_bits":64}}|}

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
        ] );
      ( "session",
        [
          Alcotest.test_case "cache identity" `Quick
            test_session_cache_identity;
          Alcotest.test_case "capacity zero" `Quick test_session_capacity_zero;
          Alcotest.test_case "lru eviction" `Quick test_session_eviction;
          Alcotest.test_case "bad sources" `Quick test_session_bad_source;
          Alcotest.test_case "baseline memo" `Quick test_session_baseline_memo;
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
    ]
