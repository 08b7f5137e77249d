module Json = Sttc_obs.Json
module Flow = Sttc_core.Flow

type config = { label : string; fraction : float option; harden : bool }

let default_config = { label = "default"; fraction = None; harden = false }

type t = {
  name : string;
  circuits : string list;
  algorithms : Flow.algorithm list;
  configs : config list;
  seeds : int list;
  shards : int;
  timeout_s : float option;
  retries : int;
  heartbeat_timeout_s : float;
  attempt_timeout_s : float option;
  backend : string;
}

let known_circuit name =
  Option.is_some (Sttc_netlist.Iscas_profiles.find name)
  || List.mem_assoc name Sttc_netlist.Iscas_data.all

let rec find_dup seen = function
  | [] -> None
  | x :: rest -> if List.mem x seen then Some x else find_dup (x :: seen) rest

let validate m =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if m.name = "" then fail "manifest: empty name"
  else if m.circuits = [] then fail "manifest: no circuits"
  else if m.algorithms = [] then fail "manifest: no algorithms"
  else if m.configs = [] then fail "manifest: no configs"
  else if m.seeds = [] then fail "manifest: no seeds"
  else if Option.is_none (Sttc_backend.Backend.find m.backend) then
    fail "manifest: unknown backend %s" m.backend
  else
    match List.find_opt (fun c -> not (known_circuit c)) m.circuits with
    | Some c -> fail "manifest: unknown circuit %s" c
    | None -> (
        match find_dup [] (List.map (fun c -> c.label) m.configs) with
        | Some l -> fail "manifest: duplicate config label %s" l
        | None -> Ok ())

(* {2 The run list} *)

type run = {
  index : int;
  circuit : string;
  config : config;
  algorithm : Flow.algorithm;
  seed : int;
}

let runs m =
  let acc = ref [] in
  let n = ref 0 in
  List.iter
    (fun circuit ->
      List.iter
        (fun config ->
          List.iter
            (fun algorithm ->
              List.iter
                (fun seed ->
                  acc := { index = !n; circuit; config; algorithm; seed } :: !acc;
                  incr n)
                m.seeds)
            m.algorithms)
        m.configs)
    m.circuits;
  List.rev !acc

let run_count m =
  List.length m.circuits * List.length m.configs * List.length m.algorithms
  * List.length m.seeds

(* {2 JSON codec} *)

let ( let* ) = Result.bind

let config_to_json c =
  Json.Obj
    (("label", Json.String c.label)
     ::
     (match c.fraction with
     | Some f -> [ ("fraction", Json.Float f) ]
     | None -> [])
    @ if c.harden then [ ("harden", Json.Bool true) ] else [])

(* [default_label] names a config without a "label" *)
let labelled_config_of_json ~default_label j =
  let ctx = "config" in
  let* label = Json.field_or ctx Json.string "label" default_label j in
  let* fraction = Json.field_opt ctx Json.number "fraction" j in
  let* () =
    Json.in_range ctx "fraction" "in (0, 1]"
      (Option.fold ~none:true ~some:(fun f -> 0. < f && f <= 1.) fraction)
  in
  let* harden = Json.field_or ctx Json.bool "harden" false j in
  Ok { label; fraction; harden }

let config_of_json j = labelled_config_of_json ~default_label:"default" j

let to_json m =
  Json.Obj
    ([
       ("name", Json.String m.name);
       ("circuits", Json.List (List.map (fun c -> Json.String c) m.circuits));
       ("algorithms", Json.List (List.map Flow.algorithm_to_json m.algorithms));
       ("configs", Json.List (List.map config_to_json m.configs));
       ("seeds", Json.List (List.map (fun s -> Json.Int s) m.seeds));
       ("shards", Json.Int m.shards);
       ("retries", Json.Int m.retries);
       ("heartbeat_timeout_s", Json.Float m.heartbeat_timeout_s);
     ]
    @ (match m.timeout_s with
      | Some t -> [ ("timeout_s", Json.Float t) ]
      | None -> [])
    @ (match m.attempt_timeout_s with
      | Some t -> [ ("attempt_timeout_s", Json.Float t) ]
      | None -> [])
    @
    if m.backend = "stt" then []
    else [ ("backend", Json.String m.backend) ])

let of_json j =
  let ctx = "manifest" in
  let* name = Json.field ctx Json.string "name" j in
  let* circuits = Json.field ctx (Json.list Json.string) "circuits" j in
  let* algorithms =
    match Json.field_opt ctx (Json.list Json.any) "algorithms" j with
    | Ok None -> Ok Flow.default_algorithms
    | Ok (Some items) -> Json.all (List.map Flow.algorithm_of_json items)
    | Error _ as e -> e
  in
  let* configs =
    match Json.field_opt ctx (Json.list Json.obj) "configs" j with
    | Ok None -> Ok [ default_config ]
    | Ok (Some items) ->
        Json.all
          (List.mapi
             (fun i c ->
               labelled_config_of_json
                 ~default_label:("config-" ^ string_of_int i)
                 c)
             items)
    | Error _ as e -> e
  in
  let* seeds =
    match Json.field ctx Json.any "seeds" j with
    | Ok (Json.List _) -> Json.field ctx (Json.list Json.int) "seeds" j
    | Ok range ->
        let* base = Json.field "seeds" Json.int "base" range in
        let* count = Json.field "seeds" Json.int "count" range in
        (* the range is expanded into a list, so a count is bounded *)
        let* () =
          Json.in_range "seeds" "count" "in [1, 1000000]"
            (1 <= count && count <= 1_000_000)
        in
        Ok (List.init count (fun i -> base + i))
    | Error _ as e -> e
  in
  let* shards = Json.field_or ctx Json.int "shards" 1 j in
  let* () = Json.in_range ctx "shards" "at least 1" (shards >= 1) in
  let* retries = Json.field_or ctx Json.int "retries" 2 j in
  let* () = Json.in_range ctx "retries" "at least 0" (retries >= 0) in
  let* timeout_s = Json.field_opt ctx Json.number "timeout_s" j in
  let* attempt_timeout_s =
    Json.field_opt ctx Json.number "attempt_timeout_s" j
  in
  let* heartbeat_timeout_s =
    Json.field_or ctx Json.number "heartbeat_timeout_s" 60. j
  in
  let* () =
    Json.in_range ctx "heartbeat_timeout_s" "positive"
      (heartbeat_timeout_s > 0.)
  in
  let* backend = Json.field_or ctx Json.string "backend" "stt" j in
  Ok
    {
      name;
      circuits;
      algorithms;
      configs;
      seeds;
      shards;
      timeout_s;
      retries;
      heartbeat_timeout_s;
      attempt_timeout_s;
      backend;
    }

let to_string m = Json.to_string (to_json m) ^ "\n"

let of_string s =
  match Json.of_string s with
  | Error e -> Error ("manifest: " ^ e)
  | Ok j ->
      let* m = of_json j in
      let* () = validate m in
      Ok m

let save path m = Sttc_obs.Export.write_text path (to_string m)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error ("manifest: " ^ e)
  | contents -> of_string contents
