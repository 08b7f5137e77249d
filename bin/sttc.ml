(* sttc — command-line front end to the hybrid STT-CMOS design flow.

   Subcommands:
     gen       generate a benchmark netlist (.bench)
     stats     print netlist statistics, timing, power and area
     protect   run the security-driven flow on a netlist
     attack    protect a netlist and run the attack campaign against it
     fig1 / table1 / table2 / fig3   regenerate the paper's experiments *)

open Cmdliner

let read_netlist path =
  try Ok (Sttc_netlist.Bench_io.parse_file path) with
  | Sttc_netlist.Bench_io.Parse_error (line, msg) ->
      Error (Printf.sprintf "%s:%d: %s" path line msg)
  | Sys_error msg -> Error msg

let netlist_arg =
  let doc = "Input gate-level netlist in ISCAS'89 .bench format." in
  Arg.(required & opt (some file) None & info [ "i"; "input" ] ~doc)

let seed_arg =
  let doc = "Random seed (experiments are deterministic per seed)." in
  Arg.(value & opt int Sttc_experiments.Runner.master_seed & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the parallel fan-out: 1 runs serially, 0 picks \
     one per core.  Output is identical at any value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc)

let resolve_jobs j = if j <= 0 then Sttc_util.Pool.default_jobs () else j

(* ---------- the --backend flag ----------

   One doc string and one parser shared by every subcommand that takes
   the flag, so `--help` text and the usage-error message can never
   drift apart.  An unknown name is a cmdliner parse error and exits
   with the usage code 64 through [Cmd.eval' ~term_err] like every
   other argument mistake. *)

let backend_doc =
  Printf.sprintf
    "Protection backend: %s.  $(b,stt) is the paper's STT-MRAM LUT \
     technology (free 2^2^n function space per cell); $(b,tvd) models \
     threshold-voltage-defined camouflaged cells, whose candidate \
     functions are known and few."
    (String.concat " or "
       (List.map
          (fun n -> Printf.sprintf "$(b,%s)" n)
          (Sttc_backend.Backend.names ())))

let backend_conv =
  let parse s =
    match Sttc_backend.Backend.find s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown backend %s (expected one of %s)" s
               (String.concat ", " (Sttc_backend.Backend.names ()))))
  in
  let print fmt b =
    Format.pp_print_string fmt (Sttc_backend.Backend.name b)
  in
  Arg.conv (parse, print)

let backend_arg =
  Arg.(
    value
    & opt backend_conv Sttc_backend.Backend.stt
    & info [ "backend" ] ~docv:"NAME" ~doc:backend_doc)

(* ---------- observability flags ---------- *)

let trace_arg =
  let doc =
    "Record tracing spans during the run and write them to $(docv) as \
     Chrome trace_event JSON (open in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Record metrics (counters, gauges, histograms) during the run and \
     write the merged snapshot to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* the CLI always wants the hard-failure semantics of the flow *)
let protect_strict ~seed ?fraction ?hardening ?backend alg nl =
  (Sttc_core.Flow.run ~seed ?fraction ?hardening ?backend
     ~policy:Sttc_core.Flow.Strict alg nl)
    .Sttc_core.Flow.accepted

(* protect/attack/lint are two-transport commands: they build the same
   [Sttc_serve.Request.t] the daemon parses off its socket and dispatch
   it through the same [Sttc_serve.Handler.handle] — the offline
   transport of the one API.  The CLI session is the degenerate
   single-process registry. *)
let offline_session = lazy (Sttc_serve.Session.create ~capacity:8 ())

let read_source path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | text ->
      Ok
        (Sttc_serve.Request.Inline
           {
             name = Filename.remove_extension (Filename.basename path);
             text;
           })

let offline_handle payload =
  Sttc_serve.Handler.handle
    (Lazy.force offline_session)
    { Sttc_serve.Request.id = None; timeout_s = None; payload }

let exit_of_result = function
  | Ok () -> 0
  | Error msg ->
      prerr_endline ("sttc: " ^ msg);
      1

(* One typed usage-error path for every subcommand: argument mistakes
   (unknown names, missing required flags, inconsistent combinations)
   exit with the sysexits EX_USAGE code 64 and point at --help —
   distinct from runtime failures (exit 1) and lint findings.
   Cmdliner's own parse errors are routed to the same code through
   [Cmd.eval' ~term_err:64] at the bottom of this file. *)
let usage_exit = 64

let usage_error ~cmd msg =
  prerr_endline ("sttc: " ^ msg);
  prerr_endline (Printf.sprintf "Try 'sttc %s --help' for more information." cmd);
  usage_exit

(* ---------- gen ---------- *)

let gen_cmd =
  let bench =
    let doc =
      "Named ISCAS'89 structural twin (s641, s820, ..., s38584), or \
       'custom'."
    in
    Arg.(value & opt string "s641" & info [ "b"; "bench" ] ~doc)
  in
  let profile =
    let doc =
      "Scale-family profile (slike|wide|deep|fanout): derive the spec from \
       --gates alone, overriding --pis/--pos/--ffs/--levels.  Requires \
       --bench custom."
    in
    Arg.(value & opt (some string) None & info [ "profile" ] ~doc)
  in
  let gates = Arg.(value & opt int 200 & info [ "gates" ] ~doc:"Custom: gate count.") in
  let pis = Arg.(value & opt int 16 & info [ "pis" ] ~doc:"Custom: primary inputs.") in
  let pos = Arg.(value & opt int 16 & info [ "pos" ] ~doc:"Custom: primary outputs.") in
  let ffs = Arg.(value & opt int 8 & info [ "ffs" ] ~doc:"Custom: flip-flops.") in
  let levels = Arg.(value & opt int 10 & info [ "levels" ] ~doc:"Custom: logic depth.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output .bench path (stdout if omitted).")
  in
  let run bench profile gates pis pos ffs levels seed output =
    exit_of_result
      (try
         let nl =
           if bench = "custom" then
             match profile with
             | Some p -> (
                 match Sttc_netlist.Generator.profile_of_string p with
                 | Ok profile ->
                     Sttc_netlist.Generator.generate_family ~seed ~profile
                       ~gates ()
                 | Error m -> invalid_arg m)
             | None ->
                 Sttc_netlist.Generator.generate ~seed
                   {
                     Sttc_netlist.Generator.design_name = "custom";
                     n_pi = pis;
                     n_po = pos;
                     n_ff = ffs;
                     n_gates = gates;
                     levels;
                   }
           else if profile <> None then
             invalid_arg "--profile requires --bench custom"
           else
             try Sttc_netlist.Iscas_profiles.build_by_name ~seed bench
             with Invalid_argument _ -> (
               (* small real benchmarks (s27, c17) live in Iscas_data,
                  not the profile generator *)
               match List.assoc_opt bench Sttc_netlist.Iscas_data.all with
               | Some build -> build ()
               | None -> invalid_arg ("unknown benchmark " ^ bench))
         in
         let text = Sttc_netlist.Bench_io.to_string nl in
         (match output with
         | None -> print_string text
         | Some path ->
             let oc = open_out path in
             output_string oc text;
             close_out oc;
             Printf.printf "wrote %s (%s)\n" path (Sttc_netlist.Netlist.stats nl));
         Ok ()
       with Invalid_argument m -> Error m)
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark netlist.")
    Term.(
      const run $ bench $ profile $ gates $ pis $ pos $ ffs $ levels $ seed_arg
      $ output)

(* ---------- stats ---------- *)

let stats_cmd =
  let run input =
    exit_of_result
      (match read_netlist input with
      | Error m -> Error m
      | Ok nl ->
          let lib = Sttc_tech.Library.cmos90 in
          print_endline (Sttc_netlist.Netlist.stats nl);
          print_string
            (Sttc_netlist.Profile_stats.render
               (Sttc_netlist.Profile_stats.compute nl));
          let sta = Sttc_analysis.Sta.analyze lib nl in
          Printf.printf "critical delay: %.1f ps (max %.3f GHz)\n"
            (Sttc_analysis.Sta.critical_delay_ps sta)
            (Sttc_analysis.Sta.max_frequency_ghz sta);
          Printf.printf "logic depth: %d levels\n" (Sttc_netlist.Query.depth nl);
          let power = Sttc_analysis.Power.estimate lib nl in
          Format.printf "%a@." Sttc_analysis.Power.pp_report power;
          let area = Sttc_analysis.Area.estimate lib nl in
          Format.printf "%a@." Sttc_analysis.Area.pp_report area;
          Ok ())
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Netlist statistics, timing, power, area.")
    Term.(const run $ netlist_arg)

(* ---------- protect ---------- *)

let algorithm_arg =
  let doc = "Selection algorithm: independent, dependent or parametric." in
  let parse = function
    | "independent" -> Ok (Sttc_core.Flow.Independent { count = 5 })
    | "dependent" -> Ok Sttc_core.Flow.Dependent
    | "parametric" ->
        Ok (Sttc_core.Flow.Parametric Sttc_core.Algorithms.default_parametric)
    | s -> Error (`Msg ("unknown algorithm " ^ s))
  in
  let print fmt alg =
    Format.pp_print_string fmt (Sttc_core.Flow.algorithm_name alg)
  in
  Arg.(
    value
    & opt (conv (parse, print)) (Sttc_core.Flow.Independent { count = 5 })
    & info [ "a"; "algorithm" ] ~doc)

let protect_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Write the foundry-view hybrid netlist (.bench).")
  in
  let bitstream =
    Arg.(value & opt (some string) None
         & info [ "bitstream" ] ~doc:"Write the secret configuration bitstream.")
  in
  let verilog =
    Arg.(value & opt (some string) None
         & info [ "verilog" ] ~doc:"Write structural Verilog of the programmed hybrid.")
  in
  let sign_off =
    Arg.(value & flag
         & info [ "sign-off" ] ~doc:"Formally verify programmed hybrid == original (SAT).")
  in
  let harden =
    Arg.(value & flag
         & info [ "harden" ]
             ~doc:"Apply the Section IV-A.3 hardening: two dummy inputs per \
                   LUT and complex-function driver absorption.")
  in
  let run input alg seed backend output bitstream verilog sign_off harden
      trace metrics =
    Sttc_obs.Obs.with_run ?trace ?metrics @@ fun () ->
    exit_of_result
      (match read_source input with
      | Error m -> Error m
      | Ok source -> (
          let payload =
            Sttc_serve.Request.Protect
              {
                source;
                algorithm = alg;
                config =
                  { Sttc_campaign.Manifest.label = "cli"; fraction = None; harden };
                seed;
                backend = Sttc_backend.Backend.name backend;
                sign_off;
                emit_foundry = output <> None;
                emit_bitstream = bitstream <> None;
                emit_verilog = verilog <> None;
                timing = true;
              }
          in
          match offline_handle payload with
          | Sttc_serve.Response.Error { message; _ } -> Error message
          | Sttc_serve.Response.Overloaded _ -> Error "overloaded"
          | Sttc_serve.Response.Ok { payload = Sttc_serve.Response.Protect p; _ }
            ->
              print_string p.Sttc_serve.Response.report;
              let write_text path text =
                Out_channel.with_open_bin path (fun oc ->
                    Out_channel.output_string oc text)
              in
              (match (output, p.Sttc_serve.Response.foundry_bench) with
              | Some path, Some text ->
                  write_text path text;
                  Printf.printf "wrote foundry view to %s\n" path
              | _ -> ());
              (match (bitstream, p.Sttc_serve.Response.bitstream) with
              | Some path, Some text ->
                  write_text path text;
                  Option.iter print_string p.Sttc_serve.Response.programming_cost;
                  Printf.printf "wrote bitstream to %s\n" path
              | _ -> ());
              (match (verilog, p.Sttc_serve.Response.verilog) with
              | Some path, Some text ->
                  write_text path text;
                  Printf.printf "wrote Verilog to %s\n" path
              | _ -> ());
              (match p.Sttc_serve.Response.sign_off with
              | Some true ->
                  print_endline
                    "sign-off: programmed hybrid is equivalent to the original";
                  Ok ()
              | Some false -> Error "sign-off FAILED: hybrid differs from original"
              | None -> Ok ())
          | Sttc_serve.Response.Ok _ -> Error "unexpected response payload"))
  in
  Cmd.v
    (Cmd.info "protect" ~doc:"Run the security-driven hybrid STT-CMOS flow.")
    Term.(
      const run $ netlist_arg $ algorithm_arg $ seed_arg $ backend_arg
      $ output $ bitstream $ verilog $ sign_off $ harden $ trace_arg
      $ metrics_arg)

(* ---------- optimize ---------- *)

let optimize_cmd =
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Output .bench path.")
  in
  let run input output =
    exit_of_result
      (match read_netlist input with
      | Error m -> Error m
      | Ok nl ->
          let opt = Sttc_netlist.Opt.optimize nl in
          (match Sttc_sim.Equiv.check_sat nl opt with
          | Sttc_sim.Equiv.Equivalent ->
              Sttc_netlist.Bench_io.write_file output opt;
              Printf.printf
                "optimized: %d -> %d combinational nodes (%.1f%% smaller), \
                 equivalence SAT-proved, wrote %s\n"
                (Sttc_netlist.Netlist.gate_count nl)
                (Sttc_netlist.Netlist.gate_count opt)
                (Sttc_netlist.Opt.size_reduction ~before:nl ~after:opt)
                output;
              Ok ()
          | Sttc_sim.Equiv.Different f ->
              Error ("optimizer changed the function at " ^ f.Sttc_sim.Equiv.signal)
          | Sttc_sim.Equiv.Inconclusive m -> Error m))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Constant-fold, collapse buffers and sweep dead logic (verified).")
    Term.(const run $ netlist_arg $ output)

(* ---------- program ---------- *)

let program_cmd =
  let bitstream =
    Arg.(required & opt (some file) None
         & info [ "bitstream" ] ~doc:"Bitstream file from 'protect --bitstream'.")
  in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~doc:"Programmed netlist output (.bench).")
  in
  let run input bitstream output =
    exit_of_result
      (match read_netlist input with
      | Error m -> Error m
      | Ok foundry -> (
          try
            let ic = open_in bitstream in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let entries = Sttc_core.Provision.parse text in
            let programmed = Sttc_core.Provision.apply foundry entries in
            Sttc_netlist.Bench_io.write_file output programmed;
            Printf.printf "programmed %d LUTs, wrote %s\n"
              (List.length entries) output;
            Ok ()
          with
          | Failure m | Invalid_argument m -> Error m
          | Sys_error m -> Error m))
  in
  Cmd.v
    (Cmd.info "program"
       ~doc:"Install a configuration bitstream into a foundry-view netlist.")
    Term.(const run $ netlist_arg $ bitstream $ output)

(* ---------- lint ---------- *)

let lint_cmd =
  let algorithms =
    let doc =
      "Also protect the netlist and run the security rule pack on the \
       hybrid: $(b,none) (structural rules only), $(b,independent), \
       $(b,dependent), $(b,parametric), or $(b,all)."
    in
    let parse = function
      | "none" -> Ok []
      | "independent" -> Ok [ Sttc_core.Flow.Independent { count = 5 } ]
      | "dependent" -> Ok [ Sttc_core.Flow.Dependent ]
      | "parametric" ->
          Ok [ Sttc_core.Flow.Parametric Sttc_core.Algorithms.default_parametric ]
      | "all" -> Ok Sttc_core.Flow.default_algorithms
      | s -> Error (`Msg ("unknown algorithm " ^ s))
    in
    let print fmt algs =
      Format.pp_print_string fmt
        (match algs with
        | [] -> "none"
        | [ a ] -> Sttc_core.Flow.algorithm_name a
        | _ -> "all")
    in
    Arg.(value & opt (conv (parse, print)) [] & info [ "a"; "algorithm" ] ~doc)
  in
  let semantic =
    let doc =
      "Also run the semantic (SEM) rule pack: dataflow- and SAT-proved \
       findings, including the Eq. 1 independent-testability prover.  On \
       the plain netlist when no algorithm is selected; on each hybrid's \
       foundry view (with the true bitstream driving the SEM008 closure) \
       otherwise."
    in
    Arg.(value & flag & info [ "semantic" ] ~doc)
  in
  let count =
    let doc = "LUT count for independent selection (paper: 5)." in
    Arg.(value & opt int 5 & info [ "count" ] ~doc)
  in
  let fraction =
    let doc = "Fraction of gates considered for selection (default 0.02)." in
    Arg.(value & opt (some float) None & info [ "fraction" ] ~doc)
  in
  let clock_factor =
    let doc =
      "Timing budget for parametric selection as a multiple of the \
       baseline critical delay (paper: 1.08)."
    in
    Arg.(value & opt float 1.08 & info [ "clock-factor" ] ~doc)
  in
  let budget =
    let doc =
      "Conflict budget per semantic SAT query; exhausted queries degrade \
       to the SEM006 warning instead of hanging or erring."
    in
    Arg.(
      value
      & opt int Sttc_lint.Semantic_rules.default_budget
      & info [ "budget" ] ~doc)
  in
  let rules =
    let doc = "Comma-separated rule IDs or aliases to run (default: all)." in
    Arg.(value & opt (list string) [] & info [ "rules" ] ~doc)
  in
  let suppress =
    let doc = "Comma-separated rule IDs or aliases to silence." in
    Arg.(value & opt (list string) [] & info [ "suppress" ] ~doc)
  in
  let format =
    let doc = "Output format: $(b,text) or $(b,json)." in
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~doc)
  in
  let baseline =
    let doc =
      "Baseline file of accepted diagnostics; only new findings are \
       reported and gated on."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~doc)
  in
  let update_baseline =
    let doc = "Write the current diagnostics to the $(b,--baseline) file \
               and exit 0." in
    Arg.(value & flag & info [ "update-baseline" ] ~doc)
  in
  let list_rules =
    Arg.(value & flag
         & info [ "list-rules" ] ~doc:"Print the rule catalog and exit.")
  in
  let input =
    let doc = "Input gate-level netlist in ISCAS'89 .bench format." in
    Arg.(value & opt (some file) None & info [ "i"; "input" ] ~doc)
  in
  let run input algorithms seed semantic count fraction clock_factor budget
      rules suppress format baseline update_baseline list_rules =
    let algorithms =
      List.map
        (function
          | Sttc_core.Flow.Independent _ -> Sttc_core.Flow.Independent { count }
          | Sttc_core.Flow.Parametric options ->
              Sttc_core.Flow.Parametric
                { options with Sttc_core.Algorithms.clock_factor }
          | alg -> alg)
        algorithms
    in
    if list_rules then begin
      print_string (Sttc_lint.Lint.catalog_text ());
      0
    end
    else
      (* a typo'd rule name must not silently disable the gate *)
      match
        List.find_opt
          (fun r -> Sttc_lint.Lint.find_rule r = None)
          (rules @ suppress)
      with
      | Some unknown ->
          usage_error ~cmd:"lint"
            ("unknown rule " ^ unknown ^ " (see --list-rules)")
      | None -> (
          match (update_baseline, baseline, input) with
          | true, None, _ ->
              usage_error ~cmd:"lint" "--update-baseline needs --baseline"
          | _, _, None ->
              usage_error ~cmd:"lint" "lint needs --input (or --list-rules)"
          | _, _, Some input -> (
              match read_netlist input with
              | Error m ->
                  prerr_endline ("sttc: " ^ m);
                  1
              | Ok nl -> (
                  (* the same diagnostics pipeline the serve daemon runs;
                     the CLI only adds the baseline file handling around
                     it *)
                  match
                    Sttc_serve.Handler.lint_diagnostics ~algorithms ~semantic
                      ~seed ?fraction ~budget ~rules ~suppress nl
                  with
                  | Error m ->
                      prerr_endline ("sttc: " ^ m);
                      1
                  | Ok ds -> (
                      let base =
                        match baseline with
                        | Some path when Sys.file_exists path ->
                            let ic = open_in path in
                            let text =
                              really_input_string ic (in_channel_length ic)
                            in
                            close_in ic;
                            Sttc_lint.Diagnostic.baseline_of_string text
                        | _ -> Sttc_lint.Diagnostic.empty_baseline
                      in
                      match (update_baseline, baseline) with
                      | true, Some path ->
                          let oc = open_out path in
                          output_string oc
                            (Sttc_lint.Diagnostic.baseline_to_string
                               (Sttc_lint.Diagnostic.baseline_of_diagnostics ds));
                          close_out oc;
                          Printf.printf "wrote baseline (%d entries) to %s\n"
                            (List.length ds) path;
                          0
                      | _ ->
                          let ds =
                            Sttc_lint.Diagnostic.apply_baseline base ds
                          in
                          let design = Sttc_netlist.Netlist.design_name nl in
                          (match format with
                          | `Text ->
                              print_string
                                (Sttc_lint.Diagnostic.render_text ~design ds)
                          | `Json ->
                              print_string
                                (Sttc_lint.Diagnostic.render_json ~design ds));
                          Sttc_lint.Lint.exit_code ds))))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze a netlist (and optionally its hybrid designs) \
          against the structural, security and semantic rule packs; exits \
          nonzero on error-severity findings.")
    Term.(
      const run $ input $ algorithms $ seed_arg $ semantic $ count $ fraction
      $ clock_factor $ budget $ rules $ suppress $ format $ baseline
      $ update_baseline $ list_rules)

(* ---------- attack ---------- *)

let attack_cmd =
  let timeout =
    Arg.(value & opt float 15. & info [ "timeout" ] ~doc:"SAT attack timeout (s).")
  in
  let solver =
    let mode =
      Arg.enum
        [
          ("incremental", Sttc_attack.Sat_attack.Incremental);
          ("scratch", Sttc_attack.Sat_attack.Scratch);
        ]
    in
    Arg.(
      value
      & opt mode Sttc_attack.Sat_attack.Incremental
      & info [ "solver" ]
          ~doc:
            "SAT engine discipline for the SAT attacks: $(b,incremental) \
             keeps one persistent solver across all attack iterations; \
             $(b,scratch) rebuilds the solver from the full formula on \
             every call (the from-scratch reference).  Both recover the \
             same key.")
  in
  let key_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "key-out" ] ~docv:"FILE"
          ~doc:
            "Run only the combinational SAT attack and write the recovered \
             key to $(docv), one 'node-id truth-table' line per LUT.  CI \
             diffs this file across --solver modes byte-for-byte.")
  in
  let run input alg seed backend timeout jobs solver key_out trace metrics =
    Sttc_obs.Obs.with_run ?trace ?metrics @@ fun () ->
    exit_of_result
      (match key_out with
      | Some path -> (
          (* key extraction stays a direct call: it needs the raw
             bitstream, not the campaign summary the API returns *)
          match read_netlist input with
          | Error m -> Error m
          | Ok nl -> (
              let r = protect_strict ~seed ~backend alg nl in
              let hybrid = r.Sttc_core.Flow.hybrid in
              let candidates =
                Sttc_backend.Backend.sat_candidates
                  backend.Sttc_backend.Backend.candidates
                  (Sttc_core.Hybrid.foundry_view hybrid)
                  (Sttc_core.Hybrid.lut_ids hybrid)
              in
              match
                Sttc_attack.Sat_attack.run ~timeout_s:timeout ~candidates
                  ~mode:solver hybrid
              with
              | Sttc_attack.Sat_attack.Broken b ->
                  let oc = open_out path in
                  List.iter
                    (fun (id, t) ->
                      Printf.fprintf oc "%d %s\n" id
                        (Sttc_logic.Truth.to_string t))
                    b.bitstream;
                  close_out oc;
                  Printf.printf
                    "sat attack: broken in %d iterations (%.2fs, %d \
                     queries); key written to %s\n"
                    b.iterations b.seconds b.queries path;
                  Ok ()
              | Sttc_attack.Sat_attack.Exhausted e ->
                  Error
                    (Printf.sprintf
                       "sat attack exhausted (%s) after %d iterations"
                       e.reason e.iterations)))
      | None -> (
          match read_source input with
          | Error m -> Error m
          | Ok source -> (
              let config =
                Sttc_attack.Harness.Config.(
                  default |> with_sat_timeout_s timeout
                  |> with_jobs (resolve_jobs jobs)
                  |> with_solver_mode solver)
              in
              match
                offline_handle
                  (Sttc_serve.Request.Attack
                     {
                       source;
                       algorithm = alg;
                       seed;
                       backend = Sttc_backend.Backend.name backend;
                       config;
                       timing = true;
                     })
              with
              | Sttc_serve.Response.Ok
                  { payload = Sttc_serve.Response.Attack { rendered; _ }; _ }
                ->
                  print_string rendered;
                  Ok ()
              | Sttc_serve.Response.Error { message; _ } -> Error message
              | Sttc_serve.Response.Overloaded _ -> Error "server overloaded"
              | Sttc_serve.Response.Ok _ ->
                  Error "unexpected response payload")))
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Protect a netlist, then run the reverse-engineering attack campaign against it.")
    Term.(
      const run $ netlist_arg $ algorithm_arg $ seed_arg $ backend_arg
      $ timeout $ jobs_arg $ solver $ key_out $ trace_arg $ metrics_arg)

(* ---------- experiments ---------- *)

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Only the sub-1000-gate benchmarks.")

let timeout_arg =
  let doc =
    "Wall-clock budget in seconds per benchmark stage; expired stages \
     are reported as partial rows instead of hanging the table."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~doc)

let isolate_arg =
  let doc =
    "Crash isolation: a benchmark that raises becomes a partial row \
     with a footnote instead of aborting the whole run."
  in
  Arg.(value & flag & info [ "isolate" ] ~doc)

let experiment_cmd name doc render =
  let run quick seed backend timeout isolate jobs trace metrics =
    Sttc_obs.Obs.with_run ?trace ?metrics @@ fun () ->
    let module R = Sttc_experiments.Runner in
    let cfg =
      {
        R.Config.seed;
        only = (if quick then Some R.quick_benchmarks else None);
        timeout_s = timeout;
        isolate;
        jobs = resolve_jobs jobs;
        backend = Sttc_backend.Backend.name backend;
      }
    in
    print_string (render (R.rows cfg));
    0
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ quick_arg $ seed_arg $ backend_arg $ timeout_arg
      $ isolate_arg $ jobs_arg $ trace_arg $ metrics_arg)

let fig1_cmd =
  Cmd.v
    (Cmd.info "fig1" ~doc:"STT-LUT vs CMOS comparison (paper Fig. 1).")
    Term.(
      const (fun () ->
          print_string (Sttc_experiments.Runner.fig1 ());
          0)
      $ const ())

let table1_cmd =
  experiment_cmd "table1" "PPA overhead table (paper Table I)."
    Sttc_experiments.Runner.table1

let table2_cmd =
  experiment_cmd "table2" "Selection CPU time (paper Table II)."
    Sttc_experiments.Runner.table2

let fig3_cmd =
  experiment_cmd "fig3" "Required test clocks (paper Fig. 3)."
    Sttc_experiments.Runner.fig3

let string_cmd name doc render =
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (fun seed ->
          print_string (render ~seed ());
          0)
      $ seed_arg)

let attacks_cmd =
  string_cmd "attacks"
    "Attack campaign: six attacks against the three hybrids of an 80-gate \
     circuit (beyond the paper)."
    (fun ~seed () -> Sttc_experiments.Runner.attack_campaign ~seed ())

let sidechannel_cmd =
  string_cmd "sidechannel" "DPA leakage: CMOS vs hybrid (beyond the paper)."
    (fun ~seed () -> Sttc_experiments.Runner.sidechannel ~seed ())

let baseline_cmd =
  string_cmd "baseline"
    "Camouflaging [12] and SRAM-LUT [8] baselines vs STT LUTs."
    (fun ~seed () -> Sttc_experiments.Runner.baselines ~seed ())

(* ---------- faults ---------- *)

let faults_cmd =
  let bench =
    Arg.(value & opt string "s641"
         & info [ "b"; "bench" ] ~doc:"ISCAS twin to protect and provision.")
  in
  let rates =
    Arg.(value & opt (list float) [ 1e-4; 1e-3; 1e-2; 5e-2 ]
         & info [ "rates" ]
             ~doc:"Comma-separated per-bit MTJ write-error rates to sweep.")
  in
  let stuck =
    Arg.(value & opt float 0.
         & info [ "stuck" ] ~doc:"As-fabricated stuck-cell rate.")
  in
  let dies =
    Arg.(value & opt int 12
         & info [ "dies" ] ~doc:"Independent dies per rate in the yield table.")
  in
  let retries =
    Arg.(value & opt int
           Sttc_core.Provision.default_resilience.Sttc_core.Provision.retry_budget
         & info [ "retries" ]
             ~doc:"Retry budget per cell for the resilient provisioner.")
  in
  let run bench rates stuck dies retries seed jobs trace metrics =
    Sttc_obs.Obs.with_run ?trace ?metrics @@ fun () ->
    exit_of_result
      (try
         let resilience =
           {
             Sttc_core.Provision.default_resilience with
             Sttc_core.Provision.retry_budget = retries;
           }
         in
         print_string
           (Sttc_experiments.Runner.fault_sweep ~seed ~bench ~rates
              ~stuck_rate:stuck ~dies ~resilience ~jobs:(resolve_jobs jobs) ());
         Ok ()
       with Invalid_argument m -> Error m)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Stochastic MTJ write-fault sweep: programming yield, retry/ECC \
          repair cost and post-repair equivalence of the provisioned part.")
    Term.(
      const run $ bench $ rates $ stuck $ dies $ retries $ seed_arg
      $ jobs_arg $ trace_arg $ metrics_arg)

let ablation_cmd =
  string_cmd "ablation"
    "Parametric-constraint, hardening and constants ablations."
    (fun ~seed () ->
      Sttc_experiments.Runner.ablation_parametric ~seed ()
      ^ "\n"
      ^ Sttc_experiments.Runner.ablation_hardening ~seed ()
      ^ "\n"
      ^ Sttc_experiments.Runner.ablation_constants ~seed ())

(* ---------- campaign / worker ---------- *)

let campaign_cmd =
  let module C = Sttc_campaign in
  let manifest =
    Arg.(value & opt (some file) None
         & info [ "manifest" ] ~docv:"FILE"
             ~doc:"Campaign manifest (JSON; see the README for the schema).")
  in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory to create for the campaign's state and report.")
  in
  let resume =
    Arg.(value & opt (some string) None
         & info [ "resume" ] ~docv:"DIR"
             ~doc:
               "Continue an interrupted campaign directory: completed shards \
                are skipped, partial shards resume from their checkpoints, \
                and the final report is identical to an uninterrupted run.")
  in
  let retries =
    Arg.(value & opt (some int) None
         & info [ "retries" ]
             ~doc:"Override the manifest's per-shard retry budget.")
  in
  let in_process =
    Arg.(value & flag
         & info [ "in-process" ]
             ~doc:
               "Run shards inside this process instead of supervised worker \
                processes (no hang detection or crash isolation; mainly for \
                tests and benchmarks).")
  in
  let run manifest dir resume retries in_process jobs =
    let resolved =
      match (manifest, dir, resume) with
      | Some mf, Some d, None -> (
          match C.Manifest.load mf with
          | Error e -> Error (`Hard e)
          | Ok m ->
              C.Shard.prepare_dir d;
              C.Manifest.save (C.Shard.manifest_path d) m;
              Ok (d, m))
      | None, None, Some d -> (
          match C.Manifest.load (C.Shard.manifest_path d) with
          | Error e -> Error (`Hard e)
          | Ok m -> Ok (d, m))
      | _ ->
          Error
            (`Usage
              "use --manifest FILE --dir DIR to start a campaign, or --resume \
               DIR to continue one")
    in
    match resolved with
    | Error (`Usage e) -> usage_error ~cmd:"campaign" e
    | Error (`Hard e) ->
        prerr_endline ("sttc: " ^ e);
        1
    | Ok (d, m) ->
        Sttc_obs.Obs.enable ();
        let worker =
          if in_process then C.Supervisor.In_process
          else C.Supervisor.default_spawn
        in
        let cfg =
          C.Supervisor.config ~jobs:(resolve_jobs jobs) ?retries ~worker
            ~on_event:(fun e ->
              prerr_endline ("campaign: " ^ C.Supervisor.string_of_event e))
            ~dir:d ~manifest:m ()
        in
        let outcome = C.Supervisor.run cfg in
        let degraded =
          List.filter_map
            (function
              | s, C.Supervisor.Exhausted { last; _ } ->
                  Some (s, C.Supervisor.cause_to_string last)
              | _, C.Supervisor.Complete -> None)
            outcome.C.Supervisor.statuses
        in
        let agg = C.Aggregate.collect ~degraded ~dir:d m in
        (match C.Aggregate.write ~dir:d agg with
        | Error e ->
            prerr_endline ("sttc: " ^ e);
            1
        | Ok () ->
            C.Aggregate.write_metrics ~dir:d m;
            print_string (C.Aggregate.render_text agg);
            Printf.printf "report: %s\nmetrics: %s\n"
              (C.Shard.report_json_path d)
              (C.Shard.campaign_metrics_path d);
            if C.Aggregate.complete agg then 0 else 2)
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a manifest-driven sweep (circuits x configs x algorithms x \
          seeds) as supervised, checkpointed worker processes.  Every \
          failure (crash, kill, hang, corrupt checkpoint) is retried with \
          capped backoff; shards that exhaust their budget degrade into \
          footnoted partial rows.  Exit: 0 complete, 2 degraded, 1 hard \
          error.")
    Term.(
      const run $ manifest $ dir $ resume $ retries $ in_process $ jobs_arg)

let worker_cmd =
  let dir =
    Arg.(required & opt (some string) None
         & info [ "dir" ] ~docv:"DIR" ~doc:"Campaign directory.")
  in
  let shard =
    Arg.(required & opt (some int) None
         & info [ "shard" ] ~docv:"K" ~doc:"Shard index to execute.")
  in
  let attempt =
    Arg.(value & opt int 1
         & info [ "attempt" ] ~docv:"A" ~doc:"Attempt number (1-based).")
  in
  let run dir shard attempt =
    match
      Sttc_campaign.Worker.run ~allow_kill_injection:true ~dir ~shard ~attempt
        ()
    with
    | Ok (o : Sttc_campaign.Worker.outcome) ->
        Printf.printf "shard %d: %d computed, %d restored, %d failed\n" shard
          o.computed o.restored o.failed;
        0
    | Error e ->
        prerr_endline ("sttc worker: " ^ e);
        1
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "(internal) Execute one campaign shard attempt.  Spawned by 'sttc \
          campaign'; honours the STTC_CAMPAIGN_KILL fault-injection hook.")
    Term.(const run $ dir $ shard $ attempt)

(* ---------- version / obs-check ---------- *)

let version_cmd =
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print build and version information (the same metadata stamped \
          into --trace/--metrics headers).")
    Term.(
      const (fun () ->
          print_string (Sttc_obs.Build_info.to_text ());
          0)
      $ const ())

let obs_check_cmd =
  let trace =
    Arg.(value & opt (some file) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Chrome-trace JSON file to validate.")
  in
  let metrics =
    Arg.(value & opt (some file) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Metrics JSON file to validate.")
  in
  let min_series =
    Arg.(value & opt int 0
         & info [ "min-series" ]
             ~doc:"Fail unless the metrics file has at least this many series.")
  in
  let require =
    Arg.(value & opt (some string) None
         & info [ "require" ] ~docv:"NAMES"
             ~doc:
               "Comma-separated metric series names that must all be present \
                in the metrics file (e.g. campaign.shard_retries).")
  in
  let run trace metrics min_series require =
    let require =
      Option.map
        (fun s ->
          List.filter (fun n -> n <> "") (String.split_on_char ',' s))
        require
    in
    exit_of_result
      (if trace = None && metrics = None then
         Error "obs-check needs --trace and/or --metrics"
       else
         Result.bind
           (match trace with
           | None -> Ok ()
           | Some p -> (
               match Sttc_obs.Obs.validate_trace_file p with
               | Ok n ->
                   Printf.printf "trace %s: OK (%d spans)\n" p n;
                   Ok ()
               | Error e -> Error (Printf.sprintf "trace %s: %s" p e)))
           (fun () ->
             match metrics with
             | None -> Ok ()
             | Some p -> (
                 match
                   Sttc_obs.Obs.validate_metrics_file ~min_series ?require p
                 with
                 | Ok n ->
                     Printf.printf "metrics %s: OK (%d series)\n" p n;
                     Ok ()
                 | Error e -> Error (Printf.sprintf "metrics %s: %s" p e))))
  in
  Cmd.v
    (Cmd.info "obs-check"
       ~doc:
         "Validate observability output files: the trace must parse as \
          Chrome trace_event JSON with well-nested spans, the metrics file \
          must carry typed series and a provenance header.")
    Term.(const run $ trace $ metrics $ min_series $ require)

(* ---------- serve / client ---------- *)

let socket_arg =
  Arg.(
    value
    & opt string "sttc.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path for the daemon.")

let serve_cmd =
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ]
          ~doc:
            "Bound on queued requests; beyond it clients receive a typed \
             'overloaded' response instead of waiting.")
  in
  let cache =
    Arg.(
      value & opt int 32
      & info [ "cache" ]
          ~doc:"Parsed-netlist cache entries (LRU); 0 disables caching.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Default per-request wall budget, applied to requests that \
             carry no timeout_s of their own.")
  in
  let run socket jobs queue cache timeout trace metrics =
    Sttc_obs.Obs.with_run ?trace ?metrics @@ fun () ->
    (* the stats verb and the serve.* counters must be live even when no
       --metrics file was requested *)
    Sttc_obs.Obs.enable ();
    let cfg =
      Sttc_serve.Server.Config.(
        default |> with_socket socket
        |> with_jobs (resolve_jobs jobs)
        |> with_queue_capacity queue |> with_cache_capacity cache
        |> with_on_event (fun e -> prerr_endline ("serve: " ^ e)))
    in
    let cfg =
      match timeout with
      | None -> cfg
      | Some s -> Sttc_serve.Server.Config.with_default_timeout_s s cfg
    in
    if queue < 1 then usage_error ~cmd:"serve" "--queue must be at least 1"
    else if cache < 0 then
      usage_error ~cmd:"serve" "--cache must be non-negative"
    else begin
      Sttc_serve.Server.run cfg;
      0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent protection/attack daemon: a Unix-domain \
          socket speaking newline-delimited JSON requests (protect, \
          attack, lint, stats, ping, shutdown) with typed responses.  \
          The daemon executes the same handler as the offline \
          subcommands, so responses are byte-identical across \
          transports.")
    Term.(
      const run $ socket_arg $ jobs_arg $ queue $ cache $ timeout $ trace_arg
      $ metrics_arg)

let client_cmd =
  let offline =
    Arg.(
      value & flag
      & info [ "offline" ]
          ~doc:
            "Execute requests in-process through the same handler the \
             daemon runs, without a daemon — the reference output for \
             byte-diffing the two transports.")
  in
  let request =
    Arg.(
      value
      & opt (some string) None
      & info [ "request" ] ~docv:"JSON" ~doc:"One request frame to send.")
  in
  let request_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "request-file" ] ~docv:"FILE"
          ~doc:"File of newline-delimited request frames to send in order.")
  in
  let read_lines = function
    | Some text, _ -> Ok [ text ]
    | None, Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error m -> Error m
        | text ->
            Ok
              (List.filter
                 (fun l -> String.trim l <> "")
                 (String.split_on_char '\n' text)))
    | None, None ->
        Ok
          (In_channel.fold_lines
             (fun acc l -> if String.trim l = "" then acc else l :: acc)
             [] In_channel.stdin
          |> List.rev)
  in
  (* an ok frame keeps exit 0; error/overloaded (or a transport failure)
     turn it into 1, matching the daemon's own classification *)
  let ok_frame line =
    match Sttc_serve.Response.of_string line with
    | Ok (Sttc_serve.Response.Ok _) -> true
    | _ -> false
  in
  let run socket offline request request_file trace metrics =
    Sttc_obs.Obs.with_run ?trace ?metrics @@ fun () ->
    match read_lines (request, request_file) with
    | Error m ->
        prerr_endline ("sttc: " ^ m);
        1
    | Ok [] ->
        usage_error ~cmd:"client"
          "no requests: use --request, --request-file, or pipe frames on \
           stdin"
    | Ok lines ->
        if offline then (
          Sttc_obs.Obs.enable ();
          let all_ok =
            List.fold_left
              (fun acc line ->
                let resp =
                  match Sttc_serve.Request.of_string line with
                  | Error e ->
                      (* the exact frame the daemon would answer with *)
                      Sttc_serve.Response.Error
                        { id = None; message = "bad request: " ^ e }
                  | Ok req ->
                      Sttc_serve.Handler.handle
                        (Lazy.force offline_session)
                        req
                in
                let line = Sttc_serve.Response.to_string resp in
                print_endline line;
                acc && ok_frame line)
              true lines
          in
          if all_ok then 0 else 1)
        else
          let result =
            Sttc_serve.Client.with_connection socket (fun c ->
                let rec loop acc = function
                  | [] -> Ok acc
                  | line :: rest -> (
                      match Sttc_serve.Client.send_raw c line with
                      | Error _ as e -> e
                      | Ok () -> (
                          match Sttc_serve.Client.recv_line c with
                          | Error _ as e -> e
                          | Ok resp ->
                              print_endline resp;
                              loop (acc && ok_frame resp) rest))
                in
                loop true lines)
          in
          (match result with
          | Ok true -> 0
          | Ok false -> 1
          | Error m ->
              prerr_endline ("sttc: " ^ m);
              1)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send newline-delimited JSON request frames to a running \
          $(b,sttc serve) daemon (or execute them in-process with \
          --offline) and print each response frame.  Exits 0 only if \
          every response has status ok.")
    Term.(
      const run $ socket_arg $ offline $ request $ request_file $ trace_arg
      $ metrics_arg)

let () =
  let doc = "Hybrid STT-CMOS designs for reverse-engineering prevention." in
  let info = Cmd.info "sttc" ~version:Sttc_obs.Build_info.version ~doc in
  (* [~term_err] only covers term-evaluation errors; cmdliner reports a
     malformed command line (unknown flag, bad --backend name, …) as
     [Exit.cli_error].  Both are argument mistakes, so both exit 64. *)
  let route_cli_error code =
    if code = Cmd.Exit.cli_error then usage_exit else code
  in
  exit
    (route_cli_error
       (Cmd.eval' ~term_err:usage_exit
          (Cmd.group info
          [
            gen_cmd;
            stats_cmd;
            optimize_cmd;
            program_cmd;
            protect_cmd;
            lint_cmd;
            attack_cmd;
            fig1_cmd;
            table1_cmd;
            table2_cmd;
            fig3_cmd;
            attacks_cmd;
            sidechannel_cmd;
            baseline_cmd;
            ablation_cmd;
            faults_cmd;
            campaign_cmd;
            worker_cmd;
            serve_cmd;
            client_cmd;
            version_cmd;
            obs_check_cmd;
          ])))
