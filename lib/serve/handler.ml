module Flow = Sttc_core.Flow
module Hybrid = Sttc_core.Hybrid
module Provision = Sttc_core.Provision
module Harness = Sttc_attack.Harness
module Netlist = Sttc_netlist.Netlist
module Metrics = Sttc_obs.Metrics
module Semantic_rules = Sttc_lint.Semantic_rules

(* ---------- the per-request wall budget ---------- *)

let timeout_message s = Printf.sprintf "request budget (%.1fs) exhausted" s

let with_budget timeout_s f =
  match timeout_s with
  | None -> f ()
  | Some s -> (
      match Sttc_util.Budget.run ~seconds:s f with
      | Ok r -> r
      | Error `Timeout -> Error (timeout_message s))

(* ---------- protect ---------- *)

let hardening_of_config (c : Sttc_campaign.Manifest.config) =
  if c.harden then Flow.hardened else Flow.no_hardening

let do_protect session (p : Request.protect) =
  match Session.netlist session p.source with
  | Error _ as e -> e
  | Ok nl -> (
      let baseline = Session.baseline session p.source nl in
      match Sttc_backend.Backend.find_exn p.backend with
      | exception Invalid_argument m -> Error m
      | backend -> (
      match
        Flow.run ~seed:p.seed
          ?fraction:p.config.Sttc_campaign.Manifest.fraction
          ~hardening:(hardening_of_config p.config)
          ~backend ~baseline ~policy:Flow.Strict p.algorithm nl
      with
      | exception Invalid_argument m -> Error m
      | resilient ->
          let r = resilient.Flow.accepted in
          let shown =
            if p.timing then r else { r with Flow.selection_seconds = 0. }
          in
          let report = Format.asprintf "%a@." Flow.pp_result shown in
          let hybrid = r.Flow.hybrid in
          let foundry_bench =
            if p.emit_foundry then
              Some (Sttc_netlist.Bench_io.to_string (Hybrid.foundry_view hybrid))
            else None
          in
          let bitstream, programming_cost =
            if p.emit_bitstream then
              ( Some (Provision.to_string (Provision.of_hybrid hybrid)),
                Some
                  (Format.asprintf "%a@." Provision.pp_cost
                     (Provision.programming_cost ~backend hybrid)) )
            else (None, None)
          in
          let verilog =
            if p.emit_verilog then
              Some (Sttc_netlist.Verilog_out.to_string (Hybrid.programmed hybrid))
            else None
          in
          let sign_off =
            if p.sign_off then Some (Flow.sign_off r) else None
          in
          Ok
            (Response.Protect
               {
                 Response.report;
                 foundry_bench;
                 bitstream;
                 programming_cost;
                 verilog;
                 sign_off;
               })))

(* ---------- attack ---------- *)

let zero_seconds (c : Harness.campaign) =
  {
    c with
    Harness.entries =
      List.map (fun e -> { e with Harness.seconds = 0. }) c.Harness.entries;
  }

let do_attack session (a : Request.attack) =
  match Session.netlist session a.source with
  | Error _ as e -> e
  | Ok nl -> (
      match Sttc_backend.Backend.find_exn a.backend with
      | exception Invalid_argument m -> Error m
      | backend -> (
      match
        Flow.run ~seed:a.seed ~backend ~policy:Flow.Strict a.algorithm nl
      with
      | exception Invalid_argument m -> Error m
      | resilient ->
          let hybrid = resilient.Flow.accepted.Flow.hybrid in
          let campaign =
            Harness.attack ~backend ~config:a.config
              ~circuit:(Netlist.design_name nl)
              ~algorithm:(Flow.algorithm_name a.algorithm)
              hybrid
          in
          let campaign = if a.timing then campaign else zero_seconds campaign in
          let rendered = Format.asprintf "%a@." Harness.pp_campaign campaign in
          Ok (Response.Attack { campaign; rendered })))

(* ---------- lint ---------- *)

let lint_diagnostics ~algorithms ~semantic ~seed ?fraction ?budget ~rules
    ~suppress nl =
  match
    List.find_opt
      (fun r -> Sttc_lint.Lint.find_rule r = None)
      (rules @ suppress)
  with
  | Some unknown -> Error ("unknown rule " ^ unknown ^ " (see --list-rules)")
  | None -> (
      let budget =
        Option.value budget ~default:Semantic_rules.default_budget
      in
      try
        let structural = Sttc_lint.Structural.check nl in
        let plain_semantic =
          if semantic && algorithms = [] then
            Semantic_rules.run (Semantic_rules.view ~budget nl)
          else []
        in
        let hybrids =
          List.concat_map
            (fun alg ->
              let r =
                (Flow.run ~seed ?fraction ~policy:Flow.Strict alg nl)
                  .Flow.accepted
              in
              let tag d =
                {
                  d with
                  Sttc_lint.Diagnostic.detail =
                    Printf.sprintf "[%s] %s" (Flow.algorithm_name alg)
                      d.Sttc_lint.Diagnostic.detail;
                }
              in
              let sec = Flow.lint_security r in
              let sem =
                if not semantic then []
                else
                  let h = r.Flow.hybrid in
                  Semantic_rules.run
                    (Semantic_rules.view ~luts:(Hybrid.lut_ids h)
                       ~configs:(Hybrid.bitstream h) ~budget
                       (Hybrid.foundry_view h))
              in
              List.map tag (sec @ sem))
            algorithms
        in
        Ok
          (Sttc_lint.Lint.apply ~only:rules ~suppress
             (structural @ plain_semantic @ hybrids))
      with Invalid_argument m -> Error m)

let do_lint session (l : Request.lint) =
  match Session.netlist session l.source with
  | Error _ as e -> e
  | Ok nl -> (
      match
        lint_diagnostics ~algorithms:l.algorithms ~semantic:l.semantic
          ~seed:l.seed ?fraction:l.fraction ?budget:l.budget ~rules:l.rules
          ~suppress:l.suppress nl
      with
      | Error _ as e -> e
      | Ok ds ->
          let design = Netlist.design_name nl in
          let rendered =
            match l.format with
            | `Text -> Sttc_lint.Diagnostic.render_text ~design ds
            | `Json -> Sttc_lint.Diagnostic.render_json ~design ds
          in
          Ok
            (Response.Lint
               { Response.rendered; exit_code = Sttc_lint.Lint.exit_code ds }))

(* ---------- dispatch ---------- *)

let max_ping_sleep_s = 10.

let handle session (req : Request.t) =
  Metrics.incr "serve.requests";
  let t0 = Sttc_util.Pool.now_s () in
  let result =
    match req.Request.payload with
    | Request.Ping { sleep_s } ->
        if sleep_s > 0. then Unix.sleepf (Float.min sleep_s max_ping_sleep_s);
        Ok Response.Pong
    | Request.Stats -> Ok (Response.Stats (Metrics.snapshot ()))
    | Request.Shutdown -> Ok Response.Shutting_down
    | Request.Protect p ->
        with_budget req.Request.timeout_s (fun () -> do_protect session p)
    | Request.Attack a ->
        with_budget req.Request.timeout_s (fun () -> do_attack session a)
    | Request.Lint l ->
        with_budget req.Request.timeout_s (fun () -> do_lint session l)
  in
  Metrics.observe "serve.request_seconds" (Sttc_util.Pool.now_s () -. t0);
  match result with
  | Ok payload -> Response.Ok { id = req.Request.id; payload }
  | Error message ->
      Metrics.incr "serve.errors";
      Response.Error { id = req.Request.id; message }
