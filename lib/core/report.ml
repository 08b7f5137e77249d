module Table = Sttc_util.Table
module Lognum = Sttc_util.Lognum

type benchmark_row = {
  circuit : string;
  size : int;
  results : (string * Flow.result) list;
  failures : (string * string) list;
}

let complete_row circuit size results =
  { circuit; size; results; failures = [] }

(* Partial rows print their cells as "-"; the footnote says why. *)
let failure_notes rows =
  let notes =
    List.concat_map
      (fun row ->
        List.map
          (fun (alg, reason) ->
            Printf.sprintf "  ! %s/%s: %s" row.circuit alg reason)
          row.failures)
      rows
  in
  if notes = [] then ""
  else "partial results:\n" ^ String.concat "\n" notes ^ "\n"

let algorithms = [ "independent"; "dependent"; "parametric" ]
let short = function
  | "independent" -> "Indep"
  | "dependent" -> "Dep"
  | "parametric" -> "Para"
  | s -> s

let get row name = List.assoc_opt name row.results

let table1 rows =
  let headers =
    [ ("Circuit", Table.Left) ]
    @ List.map (fun a -> ("Perf% " ^ short a, Table.Right)) algorithms
    @ List.map (fun a -> ("Power% " ^ short a, Table.Right)) algorithms
    @ List.map (fun a -> ("Area% " ^ short a, Table.Right)) algorithms
    @ List.map (fun a -> ("#STT " ^ short a, Table.Right)) algorithms
    @ [ ("size", Table.Right) ]
  in
  let t = Table.create ~headers in
  let cell f row a =
    match get row a with Some r -> f r | None -> "-"
  in
  let fmt_pct x = Printf.sprintf "%.2f" x in
  List.iter
    (fun row ->
      Table.add_row t
        ([ row.circuit ]
        @ List.map
            (cell (fun r -> fmt_pct r.Flow.overhead.Ppa.performance_pct) row)
            algorithms
        @ List.map
            (cell (fun r -> fmt_pct r.Flow.overhead.Ppa.power_pct) row)
            algorithms
        @ List.map
            (cell (fun r -> fmt_pct r.Flow.overhead.Ppa.area_pct) row)
            algorithms
        @ List.map
            (cell (fun r -> string_of_int r.Flow.overhead.Ppa.n_stts) row)
            algorithms
        @ [ string_of_int row.size ]))
    rows;
  (* Average row, as in the paper *)
  Table.add_separator t;
  let avg f =
    let vals =
      List.concat_map
        (fun row -> match f row with Some v -> [ v ] | None -> [])
        rows
    in
    Sttc_util.Stats.mean vals
  in
  let avg_of proj a =
    Printf.sprintf "%.2f"
      (avg (fun row -> Option.map proj (get row a)))
  in
  Table.add_row t
    ([ "Average" ]
    @ List.map (avg_of (fun r -> r.Flow.overhead.Ppa.performance_pct)) algorithms
    @ List.map (avg_of (fun r -> r.Flow.overhead.Ppa.power_pct)) algorithms
    @ List.map (avg_of (fun r -> r.Flow.overhead.Ppa.area_pct)) algorithms
    @ List.map
        (avg_of (fun r -> float_of_int r.Flow.overhead.Ppa.n_stts))
        algorithms
    @ [
        Printf.sprintf "%.0f" (avg (fun row -> Some (float_of_int row.size)));
      ]);
  Table.render t ^ failure_notes rows

let table2 rows =
  let headers =
    [ ("Circuit", Table.Left) ]
    @ List.map (fun a -> (String.capitalize_ascii a, Table.Right)) algorithms
  in
  let t = Table.create ~headers in
  List.iter
    (fun row ->
      Table.add_row t
        (row.circuit
        :: List.map
             (fun a ->
               match get row a with
               | Some r -> Sttc_util.Timing.format_min_sec r.Flow.selection_seconds
               | None -> "-")
             algorithms))
    rows;
  Table.render t ^ failure_notes rows

let clocks_for name (r : Flow.result) =
  match name with
  | "independent" -> r.Flow.security.Security.n_indep
  | "dependent" -> r.Flow.security.Security.n_dep
  | _ -> Lognum.max r.Flow.security.Security.n_dep r.Flow.security.Security.n_bf

let fig3 rows =
  let headers =
    [ ("Circuit", Table.Left) ]
    @ List.map (fun a -> ("Clocks " ^ short a, Table.Right)) algorithms
    @ [ ("Years@1GHz Para", Table.Right) ]
  in
  let t = Table.create ~headers in
  List.iter
    (fun row ->
      let para_years =
        match get row "parametric" with
        | Some r ->
            Lognum.to_string
              (Security.years_to_break (clocks_for "parametric" r))
        | None -> "-"
      in
      Table.add_row t
        ((row.circuit
         :: List.map
              (fun a ->
                match get row a with
                | Some r -> Lognum.to_string (clocks_for a r)
                | None -> "-")
              algorithms)
        @ [ para_years ]))
    rows;
  Table.render t ^ failure_notes rows

let fig1 () =
  let headers =
    [
      ("Gate", Table.Left);
      ("Metric", Table.Left);
      ("Paper (ref)", Table.Right);
      ("Model", Table.Right);
      ("CMOS", Table.Right);
    ]
  in
  let t = Table.create ~headers in
  List.iter
    (fun (row : Sttc_tech.Stt_lib.fig1_row) ->
      let model = Sttc_tech.Stt_lib.fig1_model row.Sttc_tech.Stt_lib.gate in
      let gate_name = Sttc_logic.Gate_fn.to_string row.Sttc_tech.Stt_lib.gate in
      let line metric reference predicted =
        Table.add_row t
          [
            gate_name;
            metric;
            Printf.sprintf "%.2f" reference;
            Printf.sprintf "%.2f" predicted;
            "1";
          ]
      in
      line "Delay" row.delay_ratio model.Sttc_tech.Stt_lib.delay_ratio;
      line "Active Power (a=10%)" row.active_power_ratio_10
        model.Sttc_tech.Stt_lib.active_power_ratio_10;
      line "Active Power (a=30%)" row.active_power_ratio_30
        model.Sttc_tech.Stt_lib.active_power_ratio_30;
      line "Standby Power" row.standby_power_ratio
        model.Sttc_tech.Stt_lib.standby_power_ratio;
      line "Energy per Switching" row.energy_per_switching_ratio
        model.Sttc_tech.Stt_lib.energy_per_switching_ratio;
      Table.add_separator t)
    Sttc_tech.Stt_lib.fig1_reference;
  (* 3-input gates: the paper's Fig. 1 skips them; the analytical model
     interpolates, shown as predictions with no reference column *)
  List.iter
    (fun fn ->
      let model = Sttc_tech.Stt_lib.fig1_model fn in
      let gate_name = Sttc_logic.Gate_fn.to_string fn in
      let line metric predicted =
        Table.add_row t
          [ gate_name; metric; "-"; Printf.sprintf "%.2f" predicted; "1" ]
      in
      line "Delay" model.Sttc_tech.Stt_lib.delay_ratio;
      line "Active Power (a=10%)" model.Sttc_tech.Stt_lib.active_power_ratio_10;
      line "Active Power (a=30%)" model.Sttc_tech.Stt_lib.active_power_ratio_30;
      line "Standby Power" model.Sttc_tech.Stt_lib.standby_power_ratio;
      line "Energy per Switching"
        model.Sttc_tech.Stt_lib.energy_per_switching_ratio;
      Table.add_separator t)
    [ Sttc_logic.Gate_fn.Nand 3; Sttc_logic.Gate_fn.Nor 3; Sttc_logic.Gate_fn.Xor 3 ];
  Table.render t
