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

let fraction = Json.(within "in (0, 1]" (fun f -> 0. < f && f <= 1.) number)
let clock_factor = Json.(within "at least 1" (fun f -> f >= 1.) number)

(* one table per name, each holding the name itself *)
let dependent = Json.(record "algorithm" (tag "name" "dependent"))

let independent =
  let count = Json.(within "at least 1" (fun c -> c >= 1) int) in
  Json.(
    record "algorithm"
      (let+ () = tag "name" "independent"
       and+ count = with_default "count" count 5 Fun.id in
       count))

let parametric =
  let base = Algorithms.default_parametric in
  Json.(
    record "algorithm"
      (let+ () = tag "name" "parametric"
       and+ clock_factor =
         with_default "clock_factor" clock_factor base.clock_factor (fun o ->
             o.Algorithms.clock_factor)
       in
       { base with clock_factor }))

let algorithm_json =
  let decode record wrap j = Result.map wrap (Json.decode record j) in
  let read _ j =
    (* a bare name is the object with every default *)
    let j = match j with Json.String _ -> Json.Obj [ ("name", j) ] | j -> j in
    match Json.field "algorithm" Json.string "name" j with
    | Ok "dependent" -> decode dependent (fun () -> Dependent) j
    | Ok "independent" -> decode independent (fun count -> Independent { count }) j
    | Ok "parametric" -> decode parametric (fun o -> Parametric o) j
    | Ok s -> Error ("unknown algorithm " ^ s)
    | Error _ as e -> e
  in
  let write = function
    | Dependent -> Json.String "dependent"
    | Independent { count } -> Json.encode independent count
    | Parametric o -> Json.encode parametric o
  in
  { Json.many = "values"; read; write }

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
let hardened = { extra_inputs_per_lut = 2; absorb_drivers = true }

(* The technology library selection times the netlist under; SEC005
   times under it too. *)
let library = Sttc_tech.Library.cmos90

let protect ?(seed = 1) ?(fraction = 0.02) ?(hardening = no_hardening)
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
  (* the hybrid's dead logic (STR004); Netlist.with_kinds, beneath
     Hybrid.make's transforms, already refused any malformed hybrid *)
  let lint = Sttc_lint.Structural.check (Hybrid.programmed hybrid) in
  let security =
    Security.evaluate
      ~constants:{ Security.alpha = backend.Backend.alpha; p = backend.Backend.p }
      (Hybrid.foundry_view hybrid) ~luts:(Hybrid.lut_ids hybrid)
  in
  let overhead =
    let eval_library = Backend.eval_library backend in
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

(* ---------- the entry point ---------- *)

type policy = Strict

type resilient = { accepted : result }

let run ?seed ?fraction ?hardening ?backend ?baseline ~policy:Strict algorithm
    netlist =
  Sttc_obs.Span.with_ "flow.run" ~cat:"core"
    ~attrs:[ ("algorithm", algorithm_name algorithm) ]
  @@ fun () ->
  {
    accepted =
      protect ?seed ?fraction ?hardening ?backend ?baseline algorithm netlist;
  }

let lint_view r =
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
    ~original:(Hybrid.original r.hybrid) ~clock_factor
    ~foundry:(Hybrid.foundry_view r.hybrid)
    ~luts:(Hybrid.lut_ids r.hybrid) ()

let lint_security r = Sttc_lint.Security_rules.run (lint_view r)

let sign_off result =
  match Hybrid.verify result.hybrid with
  | Sttc_sim.Equiv.Equivalent -> true
  | Sttc_sim.Equiv.Different _ | Sttc_sim.Equiv.Inconclusive _ -> false

let pp_result fmt r =
  Format.fprintf fmt "%s on %s:@\n  %a@\n  %a@\n  selection took %s"
    (algorithm_name r.algorithm)
    (Netlist.design_name (Hybrid.original r.hybrid))
    Security.pp_report r.security Ppa.pp r.overhead
    (Sttc_util.Timing.format_min_sec r.selection_seconds)

