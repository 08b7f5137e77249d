module Netlist = Sttc_netlist.Netlist
module Rng = Sttc_util.Rng
module Backend = Sttc_backend.Backend

type algorithm =
  | Independent of { count : int }
  | Dependent
  | Parametric of Algorithms.parametric_options

let algorithm_name = function
  | Independent _ -> "independent"
  | Dependent -> "dependent"
  | Parametric _ -> "parametric"

let default_algorithms =
  [
    Independent { count = 5 };
    Dependent;
    Parametric Algorithms.default_parametric;
  ]

module Json = Sttc_obs.Json

let algorithm_to_json = function
  | Dependent -> Json.String "dependent"
  | Independent { count } ->
      Json.Obj [ ("name", Json.String "independent"); ("count", Json.Int count) ]
  | Parametric opts ->
      Json.Obj
        [
          ("name", Json.String "parametric");
          ("clock_factor", Json.Float opts.clock_factor);
        ]

let json_mem name j = Option.value (Json.member name j) ~default:Json.Null

let algorithm_of_json j =
  let of_name ?count ?clock_factor = function
    | "dependent" -> Ok Dependent
    | "independent" -> Ok (Independent { count = Option.value count ~default:5 })
    | "parametric" ->
        let base = Algorithms.default_parametric in
        let clock_factor =
          Option.value clock_factor ~default:base.clock_factor
        in
        Ok (Parametric { base with clock_factor })
    | s -> Error ("unknown algorithm " ^ s)
  in
  match j with
  | Json.String s -> of_name s
  | Json.Obj _ -> (
      match Json.to_string_opt (json_mem "name" j) with
      | None -> Error "algorithm object without \"name\""
      | Some name ->
          let count = Json.to_int_opt (json_mem "count" j) in
          let clock_factor = Json.to_float_opt (json_mem "clock_factor" j) in
          of_name ?count ?clock_factor name)
  | _ -> Error "algorithm must be a string or an object"

type result = {
  algorithm : algorithm;
  hybrid : Hybrid.t;
  security : Security.report;
  overhead : Ppa.overhead;
  selection_seconds : float;
  lint : Sttc_lint.Diagnostic.t list;
  parametric_meta : Algorithms.parametric_meta option;
}

type hardening = {
  extra_inputs_per_lut : int;
  absorb_drivers : bool;
}

let no_hardening = { extra_inputs_per_lut = 0; absorb_drivers = false }

(* The default backend prices with the caller's library as given (it may
   deliberately carry the SRAM style for the Section II comparison); any
   other backend forces its own cell technology. *)
let eval_library ?(library = Sttc_tech.Library.cmos90) backend =
  if backend == Backend.stt then library else Backend.eval_library backend library

let protect ?(seed = 1) ?(library = Sttc_tech.Library.cmos90)
    ?(fraction = 0.02) ?(hardening = no_hardening) ?(semantic = false)
    ?(backend = Backend.stt) ?baseline algorithm netlist =
  Sttc_obs.Span.with_ "flow.protect" ~cat:"core"
    ~attrs:
      [
        ("algorithm", algorithm_name algorithm);
        ("design", Netlist.design_name netlist);
      ]
  @@ fun () ->
  if Netlist.gates netlist = [] then
    invalid_arg "Flow.run: netlist has no CMOS gates";
  (* Hardening grows LUT configs past the replaced gate's own function,
     which a candidate-restricted cell (TVD) cannot realize. *)
  if
    backend.Backend.candidates <> None
    && (hardening.extra_inputs_per_lut > 0 || hardening.absorb_drivers)
  then
    invalid_arg
      ("Flow.run: hardening requires a free-function backend, not "
      ^ Backend.name backend);
  (* a supplied baseline stands in for what it was computed for *)
  let supplied lib =
    match baseline with
    | Some bl when Ppa.matches bl lib netlist -> Some bl
    | Some _ | None -> None
  in
  let rng = Rng.make (seed lxor Hashtbl.hash (algorithm_name algorithm)) in
  let (hybrid, meta, sta), selection_seconds =
    Sttc_util.Timing.time (fun () ->
        let ctx =
          Select.prepare ~rng ~fraction
            ?sta:(Option.map Ppa.baseline_sta (supplied library))
            library netlist
        in
        let gates, meta =
          match algorithm with
          | Independent { count } ->
              (Algorithms.independent ~rng ~count ctx, None)
          | Dependent -> (Algorithms.dependent ~rng ctx, None)
          | Parametric options ->
              let gates, meta =
                Algorithms.parametric_with_meta ~rng ~options ctx
              in
              (gates, Some meta)
        in
        (* Replacing a gate that reaches no primary output buys zero
           corruptibility (D_i of Eqs. 1-2 is infinite): drop such picks,
           which only arise from dead logic in the input netlist.  The
           [unobservable-lut] lint rule enforces the same invariant. *)
        let depth_to_po = Sttc_netlist.Query.sequential_depth_to_po netlist in
        let observable id = depth_to_po.(id) < max_int in
        let gates = List.filter observable gates in
        let meta =
          Option.map
            (fun m ->
              {
                m with
                Algorithms.closure_neighbours =
                  List.filter observable m.Algorithms.closure_neighbours;
              })
            meta
        in
        let gates =
          if gates <> [] then gates
          else
            match List.filter observable (Netlist.gates netlist) with
            | g :: _ -> [ g ]
            | [] -> [ List.hd (Netlist.gates netlist) ]
        in
        let absorb =
          if hardening.absorb_drivers then Expand.pick_absorptions netlist gates
          else []
        in
        let extra_inputs =
          if hardening.extra_inputs_per_lut > 0 then
            Expand.pick_extra_inputs ~rng
              ~per_lut:hardening.extra_inputs_per_lut netlist gates
          else []
        in
        (Hybrid.make ~extra_inputs ~absorb netlist gates, meta, ctx.Select.sta))
  in
  Sttc_obs.Metrics.(
    incr "flow.protects";
    incr ("backend.protect." ^ Backend.name backend);
    observe "flow.selection_seconds" selection_seconds);
  let obs_result r =
    Sttc_obs.Metrics.(
      incr ~by:(Netlist.gate_count netlist) "flow.gates";
      incr ~by:(Hybrid.lut_count r.hybrid) "flow.luts";
      incr ~by:(List.length r.lint) "flow.lint_diagnostics";
      incr ~by:r.security.Security.missing_gates "flow.missing_gates";
      incr ~by:r.security.Security.total_config_bits "flow.config_bits";
      observe "flow.area_overhead_pct" r.overhead.Ppa.area_pct;
      observe "flow.power_overhead_pct" r.overhead.Ppa.power_pct;
      observe "flow.delay_overhead_pct" r.overhead.Ppa.performance_pct;
      peak_gauge "flow.bf_keyspace_log10"
        (Sttc_util.Lognum.log10 r.security.Security.n_bf));
    r
  in
  (* Every protect run is statically checked: a malformed hybrid would
     silently produce wrong security numbers downstream. *)
  let lint =
    Sttc_lint.Structural.check ~library (Hybrid.programmed hybrid)
  in
  (match
     List.filter
       (fun d -> d.Sttc_lint.Diagnostic.severity = Sttc_lint.Diagnostic.Error)
       lint
   with
  | [] -> ()
  | d :: _ ->
      invalid_arg
        ("Flow.run: hybrid fails structural lint: "
        ^ Sttc_lint.Diagnostic.to_text d));
  (* Opt-in semantic gate: the Eq. 1 prover and its companions on the
     foundry view, with the true bitstream enabling the closure.  An
     error here means the protection is statically defeatable (all
     missing gates independently testable, or a keyspace collapse). *)
  let lint =
    if not semantic then lint
    else begin
      let sem =
        Sttc_lint.Semantic_rules.run
          (Sttc_lint.Semantic_rules.view
             ~luts:(Hybrid.lut_ids hybrid)
             ~configs:(Hybrid.bitstream hybrid)
             (Hybrid.foundry_view hybrid))
      in
      (match
         List.filter
           (fun d ->
             d.Sttc_lint.Diagnostic.severity = Sttc_lint.Diagnostic.Error)
           sem
       with
      | [] -> ()
      | d :: _ ->
          invalid_arg
            ("Flow.run: hybrid fails semantic lint: "
            ^ Sttc_lint.Diagnostic.to_text d));
      lint @ sem
    end
  in
  let security =
    Security.evaluate
      ~constants:{ Security.alpha = backend.Backend.alpha; p = backend.Backend.p }
      (Hybrid.foundry_view hybrid) ~luts:(Hybrid.lut_ids hybrid)
  in
  let overhead =
    let eval_library = eval_library ~library backend in
    let baseline =
      match supplied eval_library with
      | Some bl ->
          Sttc_obs.Metrics.incr "flow.baseline_reused";
          bl
      | None -> Ppa.baseline ~sta eval_library netlist
    in
    Ppa.evaluate ~baseline eval_library ~base:netlist
      ~hybrid:(Hybrid.programmed hybrid)
  in
  obs_result
    {
      algorithm;
      hybrid;
      security;
      overhead;
      selection_seconds;
      lint;
      parametric_meta = meta;
    }

(* ---------- resilient protection ---------- *)

type rejection = {
  attempted : algorithm;
  attempt_seed : int;
  reason : string;
}

type resilient = {
  accepted : result;
  requested : algorithm;
  rejections : rejection list;
  degraded : bool;
}

let meets_timing algorithm (r : result) =
  match algorithm with
  | Parametric options ->
      let budget_pct = (options.Algorithms.clock_factor -. 1.) *. 100. in
      if r.overhead.Ppa.performance_pct <= budget_pct +. 1e-9 then Ok ()
      else
        Error
          (Printf.sprintf "timing missed: %.2f%% degradation > %.2f%% budget"
             r.overhead.Ppa.performance_pct budget_pct)
  | Independent _ | Dependent -> Ok ()

let degradation_chain = function
  | Parametric _ as p -> [ p; Dependent; Independent { count = 5 } ]
  | Dependent -> [ Dependent; Independent { count = 5 } ]
  | Independent _ as i -> [ i ]

let protect_resilient ?(seed = 1) ?library ?fraction ?hardening ?semantic
    ?backend ?baseline ?(max_reseeds = 2) algorithm netlist =
  let rejections = ref [] in
  let reject attempted attempt_seed reason =
    rejections := { attempted; attempt_seed; reason } :: !rejections
  in
  let try_once alg attempt_seed =
    match
      protect ~seed:attempt_seed ?library ?fraction ?hardening ?semantic
        ?backend ?baseline alg netlist
    with
    | r -> (
        match meets_timing alg r with
        | Ok () -> Some r
        | Error reason ->
            reject alg attempt_seed reason;
            None)
    | exception Invalid_argument reason ->
        reject alg attempt_seed reason;
        None
  in
  let rec try_algorithm alg reseed =
    if reseed > max_reseeds then None
    else
      match try_once alg (seed + reseed) with
      | Some r -> Some r
      | None -> try_algorithm alg (reseed + 1)
  in
  let rec down = function
    | [] ->
        invalid_arg
          ("Flow.run: all attempts failed: "
          ^ String.concat "; "
              (List.rev_map
                 (fun rj ->
                   Printf.sprintf "%s@%d: %s"
                     (algorithm_name rj.attempted)
                     rj.attempt_seed rj.reason)
                 !rejections))
    | alg :: rest -> (
        match try_algorithm alg 0 with
        | Some r -> r
        | None -> down rest)
  in
  let accepted = down (degradation_chain algorithm) in
  {
    accepted;
    requested = algorithm;
    rejections = List.rev !rejections;
    degraded = algorithm_name accepted.algorithm <> algorithm_name algorithm;
  }

(* ---------- unified entry point ---------- *)

type resilience = { max_reseeds : int }

type policy = Strict | Resilient of resilience

let run ?seed ?library ?fraction ?hardening ?semantic ?backend ?baseline
    ~policy algorithm netlist =
  Sttc_obs.Span.with_ "flow.run" ~cat:"core"
    ~attrs:
      [
        ("algorithm", algorithm_name algorithm);
        ( "policy",
          match policy with Strict -> "strict" | Resilient _ -> "resilient" );
      ]
  @@ fun () ->
  match policy with
  | Strict ->
      let accepted =
        protect ?seed ?library ?fraction ?hardening ?semantic ?backend
          ?baseline algorithm netlist
      in
      { accepted; requested = algorithm; rejections = []; degraded = false }
  | Resilient { max_reseeds } ->
      protect_resilient ?seed ?library ?fraction ?hardening ?semantic ?backend
        ?baseline ~max_reseeds algorithm netlist

let lint_view ?(library = Sttc_tech.Library.cmos90) r =
  let algorithm =
    match r.algorithm with
    | Independent _ -> Sttc_lint.Security_rules.Independent
    | Dependent -> Sttc_lint.Security_rules.Dependent
    | Parametric _ -> Sttc_lint.Security_rules.Parametric
  in
  let clock_factor =
    match r.algorithm with
    | Parametric options -> options.Algorithms.clock_factor
    | Independent _ | Dependent -> 1.08
  in
  let meta =
    Option.map
      (fun m ->
        {
          Sttc_lint.Security_rules.usl = m.Algorithms.usl;
          neighbours = m.Algorithms.closure_neighbours;
        })
      r.parametric_meta
  in
  Sttc_lint.Security_rules.view ~algorithm ?meta
    ~original:(Hybrid.original r.hybrid) ~library ~clock_factor
    ~foundry:(Hybrid.foundry_view r.hybrid)
    ~luts:(Hybrid.lut_ids r.hybrid) ()

let lint_security ?library ?only r =
  Sttc_lint.Security_rules.run ?only (lint_view ?library r)

let sign_off ?method_ result =
  match Hybrid.verify ?method_ result.hybrid with
  | Sttc_sim.Equiv.Equivalent -> true
  | Sttc_sim.Equiv.Different _ | Sttc_sim.Equiv.Inconclusive _ -> false

let pp_result fmt r =
  Format.fprintf fmt "%s on %s:@\n  %a@\n  %a@\n  selection took %s"
    (algorithm_name r.algorithm)
    (Netlist.design_name (Hybrid.original r.hybrid))
    Security.pp_report r.security Ppa.pp r.overhead
    (Sttc_util.Timing.format_min_sec r.selection_seconds)

