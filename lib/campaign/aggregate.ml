module Json = Sttc_obs.Json
module Table = Sttc_util.Table
module Metrics = Sttc_obs.Metrics

type source = Result | Checkpoint | Nothing

type t = {
  manifest : Manifest.t;
  rows : Shard.row list;
  missing : Manifest.run list;
  sources : (int * source) list;
  degraded : (int * string) list;
}

let collect ?(degraded = []) ~dir (m : Manifest.t) =
  let per_shard =
    List.init m.shards (fun shard ->
        match Shard.load_result ~dir ~shard with
        | Ok rows -> (shard, Result, rows)
        | Error _ ->
            let rows = Shard.load_checkpoint ~dir ~shard in
            (shard, (if rows = [] then Nothing else Checkpoint), rows))
  in
  let rows =
    List.sort
      (fun (a : Shard.row) b -> compare a.index b.index)
      (List.concat_map (fun (_, _, r) -> r) per_shard)
  in
  let have = Hashtbl.create 64 in
  List.iter (fun (r : Shard.row) -> Hashtbl.replace have r.index ()) rows;
  let missing =
    List.filter
      (fun (r : Manifest.run) -> not (Hashtbl.mem have r.index))
      (Manifest.runs m)
  in
  {
    manifest = m;
    rows;
    missing;
    sources = List.map (fun (s, src, _) -> (s, src)) per_shard;
    degraded = List.sort compare degraded;
  }

let complete t = t.missing = [] && t.degraded = []

(* {2 JSON} *)

let row_json (r : Shard.row) =
  Json.Obj
    ([
       ("index", Json.Int r.index);
       ("circuit", Json.String r.circuit);
       ("config", Json.String r.config);
       ("algorithm", Json.String r.algorithm);
       ("seed", Json.Int r.seed);
     ]
    @
    match r.outcome with
    | Shard.Done m ->
        [
          ("status", Json.String "ok");
          ("gates", Json.Int m.gates);
          ("luts", Json.Int m.luts);
          ("config_bits", Json.Int m.config_bits);
          ("perf_pct", Json.Float m.perf_pct);
          ("power_pct", Json.Float m.power_pct);
          ("area_pct", Json.Float m.area_pct);
          ("n_indep", Json.String m.n_indep);
          ("n_dep", Json.String m.n_dep);
          ("n_bf", Json.String m.n_bf);
        ]
    | Shard.Failed reason ->
        [ ("status", Json.String "failed"); ("reason", Json.String reason) ])

let missing_json (r : Manifest.run) =
  Json.Obj
    [
      ("index", Json.Int r.index);
      ("circuit", Json.String r.circuit);
      ("config", Json.String r.config.label);
      ("algorithm", Json.String (Sttc_core.Flow.algorithm_name r.algorithm));
      ("seed", Json.Int r.seed);
      ("status", Json.String "missing");
    ]

(* rows and missing runs interleaved in run-index order *)
let entries t =
  List.sort
    (fun (i, _) (j, _) -> compare i j)
    (List.map (fun (r : Shard.row) -> (r.index, `Row r)) t.rows
    @ List.map (fun (r : Manifest.run) -> (r.index, `Miss r)) t.missing)

let failed_count t =
  List.length
    (List.filter
       (fun (r : Shard.row) ->
         match r.outcome with Shard.Failed _ -> true | Shard.Done _ -> false)
       t.rows)

let to_json t =
  let m = t.manifest in
  Json.Obj
    [
      ("campaign", Json.String m.Manifest.name);
      ("total_runs", Json.Int (Manifest.run_count m));
      ("completed", Json.Int (List.length t.rows));
      ("failed_runs", Json.Int (failed_count t));
      ("missing", Json.Int (List.length t.missing));
      ( "degraded_shards",
        Json.List
          (List.map
             (fun (shard, cause) ->
               Json.Obj
                 [ ("shard", Json.Int shard); ("cause", Json.String cause) ])
             t.degraded) );
      ( "rows",
        Json.List
          (List.map
             (fun (_, e) ->
               match e with `Row r -> row_json r | `Miss r -> missing_json r)
             (entries t)) );
    ]

(* {2 Validation} *)

let ( let* ) = Result.bind

let validate_row i j =
  let ctx = Printf.sprintf "report: row %d" i in
  let* _ = Json.field ctx Json.int "index" j in
  let* _ = Json.field ctx Json.string "circuit" j in
  let* _ = Json.field ctx Json.string "config" j in
  let* _ = Json.field ctx Json.string "algorithm" j in
  let* _ = Json.field ctx Json.int "seed" j in
  let* status = Json.field ctx Json.string "status" j in
  match status with
  | "ok" ->
      let* _ = Json.field ctx Json.int "luts" j in
      let* _ = Json.field ctx Json.int "config_bits" j in
      let* _ = Json.field ctx Json.string "n_bf" j in
      Ok ()
  | "failed" ->
      let* _ = Json.field ctx Json.string "reason" j in
      Ok ()
  | "missing" -> Ok ()
  | s -> Error (Printf.sprintf "%s: unknown status %S" ctx s)

let validate j =
  let ctx = "report" in
  let* _ = Json.field ctx Json.string "campaign" j in
  let* total = Json.field ctx Json.int "total_runs" j in
  let* completed = Json.field ctx Json.int "completed" j in
  let* missing = Json.field ctx Json.int "missing" j in
  let* _ = Json.field ctx Json.int "failed_runs" j in
  let* rows = Json.field ctx (Json.list Json.obj) "rows" j in
  if completed + missing <> total then
    Error
      (Printf.sprintf "report: completed %d + missing %d <> total %d" completed
         missing total)
  else if List.length rows <> total then
    Error
      (Printf.sprintf "report: %d rows but total_runs %d" (List.length rows)
         total)
  else
    let* _ = Json.all (List.mapi validate_row rows) in
    Ok (List.length rows)

(* {2 Text rendering} *)

let render_text t =
  let m = t.manifest in
  let total = Manifest.run_count m in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "Campaign %s: %d/%d runs complete (%d failed, %d missing)\n"
    m.Manifest.name (List.length t.rows) total (failed_count t)
    (List.length t.missing);
  Buffer.add_char buf '\n';
  let notes = ref [] and n_notes = ref 0 in
  let note text =
    match List.assoc_opt text !notes with
    | Some n -> n
    | None ->
        incr n_notes;
        notes := !notes @ [ (text, !n_notes) ];
        !n_notes
  in
  let tbl =
    Table.create
      ~headers:
        [
          ("#", Table.Right);
          ("Circuit", Table.Left);
          ("Config", Table.Left);
          ("Algorithm", Table.Left);
          ("Seed", Table.Right);
          ("Gates", Table.Right);
          ("LUTs", Table.Right);
          ("Bits", Table.Right);
          ("Perf %", Table.Right);
          ("Power %", Table.Right);
          ("Area %", Table.Right);
          ("N_bf", Table.Right);
          ("Status", Table.Left);
        ]
  in
  let pct f = Printf.sprintf "%.2f" f in
  List.iter
    (fun (index, e) ->
      match e with
      | `Row (r : Shard.row) -> (
          match r.outcome with
          | Shard.Done mt ->
              Table.add_row tbl
                [
                  string_of_int index;
                  r.circuit;
                  r.config;
                  r.algorithm;
                  string_of_int r.seed;
                  string_of_int mt.gates;
                  string_of_int mt.luts;
                  string_of_int mt.config_bits;
                  pct mt.perf_pct;
                  pct mt.power_pct;
                  pct mt.area_pct;
                  mt.n_bf;
                  "ok";
                ]
          | Shard.Failed reason ->
              let n = note ("run failed: " ^ reason) in
              Table.add_row tbl
                [
                  string_of_int index;
                  r.circuit;
                  r.config;
                  r.algorithm;
                  string_of_int r.seed;
                  "-";
                  "-";
                  "-";
                  "-";
                  "-";
                  "-";
                  "-";
                  Printf.sprintf "failed [%d]" n;
                ])
      | `Miss (r : Manifest.run) ->
          let shard = r.index mod m.Manifest.shards in
          let why =
            match List.assoc_opt shard t.degraded with
            | Some cause ->
                Printf.sprintf "not executed (shard %d degraded: %s)" shard
                  cause
            | None -> Printf.sprintf "not executed (shard %d incomplete)" shard
          in
          let n = note why in
          Table.add_row tbl
            [
              string_of_int index;
              r.circuit;
              r.config.label;
              Sttc_core.Flow.algorithm_name r.algorithm;
              string_of_int r.seed;
              "-";
              "-";
              "-";
              "-";
              "-";
              "-";
              "-";
              Printf.sprintf "missing [%d]" n;
            ])
    (entries t);
  Buffer.add_string buf (Table.render tbl);
  if !notes <> [] then (
    Buffer.add_char buf '\n';
    List.iter
      (fun (text, n) -> Printf.bprintf buf "[%d] %s\n" n text)
      !notes);
  Buffer.contents buf

(* {2 Files} *)

let write ~dir t =
  Sttc_obs.Export.write_file (Shard.report_json_path dir) (to_json t);
  Sttc_obs.Export.write_text (Shard.report_text_path dir) (render_text t);
  match
    In_channel.with_open_bin (Shard.report_json_path dir) In_channel.input_all
  with
  | exception Sys_error e -> Error ("report readback: " ^ e)
  | contents -> (
      match Json.of_string contents with
      | Error e -> Error ("report readback: " ^ e)
      | Ok j -> (
          match validate j with Ok _ -> Ok () | Error _ as e -> e))

let merge_metrics ~dir (m : Manifest.t) =
  let shard_snap shard =
    let path = Shard.metrics_path ~dir shard in
    if not (Sys.file_exists path) then None
    else
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error _ -> None
      | contents -> (
          match Json.of_string contents with
          | Error _ -> None
          | Ok j ->
              Result.to_option
                (Result.bind
                   (Json.field "metrics file" Json.obj "metrics" j)
                   Metrics.of_json))
  in
  List.fold_left
    (fun acc shard ->
      match shard_snap shard with Some s -> Metrics.merge acc s | None -> acc)
    (Metrics.snapshot ())
    (List.init m.shards Fun.id)

let write_metrics ~dir m =
  Sttc_obs.Export.write_file
    (Shard.campaign_metrics_path dir)
    (Sttc_obs.Export.metrics_json_of_snapshot (merge_metrics ~dir m))
