(* paper-rows and paper-lint: the paper's own evaluation on the ISCAS'89
   twins.

   paper-rows runs Runner.rows (12 twins x 3 algorithms, one domain, at
   the workload seed): many small protect calls, where per-call fixed
   costs and PPA dominate.

   paper-lint runs the semantic lint pack, whose time goes to the SAT
   prover, on the independent hybrids of the seven sub-1000-gate twins.
   s5378a's lint (4.3 s, four fifths of the whole) is left out so that a
   run holds enough passes for a stable median.  The hybrids are
   selected at the paper's master seed, not at the workload seed: lint
   cost is heavy-tailed in the selection (s1488's lint takes 0.05 s to
   3.6 s across the first 24 seeds), so seeded lint inputs would make
   the time measure the selection lottery rather than the code.  The
   workload seed orders the hybrids within a pass. *)

module Flow = Sttc_core.Flow
module Hybrid = Sttc_core.Hybrid
module Runner = Sttc_experiments.Runner
module Semantic = Sttc_lint.Semantic_rules

let lint_circuits ~toy =
  if toy then [ "s641" ]
  else
    List.filter_map
      (fun (i : Sttc_netlist.Iscas_profiles.info) ->
        if i.n_gates < 1000 then Some i.name else None)
      Sttc_netlist.Iscas_profiles.all

let lint_rules =
  [ "SEM001"; "SEM002"; "SEM003"; "SEM004"; "SEM005"; "SEM006"; "SEM007"; "SEM008" ]

let rows_text rows = Runner.table1 rows ^ Runner.fig3 rows

let hybrids rows =
  List.concat_map
    (fun (r : Sttc_core.Report.benchmark_row) ->
      List.map (fun (alg, (res : Flow.result)) -> (r.circuit, alg, res.hybrid)) r.results)
    rows

(* the first pass's output; later passes must reproduce its text *)
let same first v text =
  match !first with
  | None ->
      first := Some (v, text);
      true
  | Some (_, t) -> t = text

let first_text first = match !first with Some (_, t) -> t | None -> ""

let rows_setup { Workload.toy; seed; _ } =
  let config =
    Runner.Config.(
      default |> with_seed seed |> with_jobs 1
      |> if toy then with_only [ "s641" ] else Fun.id)
  in
  (* Runner.rows builds its own twins; set-up builds them too and
     fingerprints them, so that a change in the inputs shows in the
     digest apart from a change in the rows *)
  let inputs =
    Workload.digest_strings
      (List.filter_map
         (fun (i : Sttc_netlist.Iscas_profiles.info) ->
           if toy && i.name <> "s641" then None
           else Some (Sttc_netlist.Bench_io.to_string (Runner.build_circuit i.name)))
         Sttc_netlist.Iscas_profiles.all)
  in
  let first = ref None in
  let pass () =
    let op, rows = Workload.timed "table.rows" (fun () -> Runner.rows config) in
    match rows with
    | Some rows ->
        let complete =
          List.for_all (fun (r : Sttc_core.Report.benchmark_row) -> r.failures = []) rows
        in
        [ { op with ok = complete && same first rows (rows_text rows) } ]
    | None -> [ op ]
  in
  let rows () = match !first with Some (rows, _) -> rows | None -> [] in
  let replayed = ref [] in
  let probe () =
    List.iter
      (fun (r : Sttc_core.Report.benchmark_row) ->
        let netlist = Runner.build_circuit r.circuit in
        List.iter
          (fun (alg, (res : Flow.result)) ->
            let h, bits = Replay.protect ~seed res.algorithm netlist in
            let h0 = res.hybrid in
            replayed :=
              ( Printf.sprintf "replay fingerprint %s/%s" r.circuit alg,
                Replay.fingerprint h bits = Replay.fingerprint h0 (Replay.bitstream h0) )
              :: !replayed)
          r.results)
      (rows ())
  in
  let checks () =
    (("table rows present", rows () <> [])
    :: List.map
         (fun (circuit, alg, h) ->
           (Printf.sprintf "random-1024 verify %s/%s" circuit alg, Replay.random_verify h))
         (hybrids (rows ())))
    @ List.rev !replayed
  in
  let layer_metrics t =
    let luts = List.fold_left (fun acc (_, _, h) -> acc + Hybrid.lut_count h) 0 (hybrids (rows ())) in
    let rows_s = Workload.total_s t "bench.table.rows" in
    Replay.layer_metrics t ~luts
    @ [
        Workload.metric "runner.build_pct" "%"
          (Workload.share (Workload.self_s t "runner.build") rows_s);
        Workload.metric "runner.row_pct" "%"
          (Workload.share (Workload.self_s t "runner.row") rows_s);
      ]
  in
  {
    Workload.pass;
    probe;
    checks;
    digest = (fun () -> Workload.digest_strings [ inputs; first_text first ]);
    op_ms = Workload.pass_op_ms;
    user_metrics = (fun _ -> []);
    layer_metrics;
    peak_rss_mb = Workload.self_rss_mb;
    close = ignore;
  }

let lint_text diags =
  String.concat "\n"
    (List.map (fun ds -> String.concat "\n" (List.map Sttc_lint.Diagnostic.to_text ds)) diags)

let lint_setup { Workload.toy; seed; _ } =
  let named =
    List.map
      (fun name ->
        ( name,
          (Flow.run ~seed:Runner.master_seed ~policy:Flow.Strict
             (Flow.Independent { count = 5 })
             (Runner.build_circuit name))
            .Flow.accepted.Flow.hybrid ))
      (lint_circuits ~toy)
  in
  let order = Array.of_list named in
  Sttc_util.Rng.shuffle (Sttc_util.Rng.make seed) order;
  let views =
    List.map
      (fun (_, h) ->
        Semantic.view ~luts:(Hybrid.lut_ids h) ~configs:(Hybrid.bitstream h) (Hybrid.foundry_view h))
      (Array.to_list order)
  in
  let first = ref None in
  let pass () =
    let op, diags = Workload.timed "lint.sem" (fun () -> List.map Semantic.run views) in
    match diags with
    | Some ds -> [ { op with ok = same first ds (lint_text ds) } ]
    | None -> [ op ]
  in
  let checks () =
    ("lint ran", !first <> None)
    :: List.map (fun (name, h) -> ("random-1024 verify " ^ name, Replay.random_verify h)) named
  in
  let layer_metrics t =
    let lint_s = Workload.total_s t "bench.lint.sem" in
    Workload.metric "lint.sem_pct" "%" (Workload.share (Workload.self_s t "lint.sem") lint_s)
    :: List.map
         (fun span ->
           Workload.metric (span ^ "_pct") "%" (Workload.share (Workload.self_s t span) lint_s))
         ([ "lint.sem.dataflow"; "lint.sem.lower" ] @ List.map (fun r -> "lint.sem." ^ r) lint_rules)
    @ Workload.counters_per_pass t t.Workload.pass_counters
        ([ "lint.sem.queries"; "lint.sem.cutoffs" ] @ Workload.sat_counters)
  in
  {
    Workload.pass;
    probe = ignore;
    checks;
    (* the seed only orders the hybrids: the digest is order-free *)
    digest =
      (fun () ->
        match !first with
        | None -> "none"
        | Some (diags, _) ->
            Workload.digest_strings
              (List.sort compare
                 (List.map2
                    (fun (name, _) ds -> name ^ "\n" ^ lint_text [ ds ])
                    (Array.to_list order) diags)));
    op_ms = Workload.pass_op_ms;
    user_metrics = (fun _ -> []);
    layer_metrics;
    peak_rss_mb = Workload.self_rss_mb;
    close = ignore;
  }

let rows =
  {
    Workload.name = "paper-rows";
    why =
      "the paper's Table I/Fig. 3 rows, 12 ISCAS'89 twins x 3 algorithms: many \
       small protect calls where per-call costs and PPA dominate";
    op = "one Runner.rows";
    jobs = 1;
    layers = "table.rows" :: Replay.layers;
    setup = rows_setup;
  }

let lint =
  {
    Workload.name = "paper-lint";
    why =
      "the semantic lint pack on the independent hybrids of the 7 \
       sub-1000-gate twins: dataflow, lowering and the SAT prover";
    op = "one lint pass over the 7 hybrids";
    jobs = 1;
    layers = [ "lint.sem" ];
    setup = lint_setup;
  }
