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
  else if m.shards < 1 then fail "manifest: shards must be >= 1"
  else if m.retries < 0 then fail "manifest: retries must be >= 0"
  else if m.heartbeat_timeout_s <= 0. then
    fail "manifest: heartbeat_timeout_s must be > 0"
  else if Option.is_none (Sttc_backend.Backend.find m.backend) then
    fail "manifest: unknown backend %s" m.backend
  else
    match List.find_opt (fun c -> not (known_circuit c)) m.circuits with
    | Some c -> fail "manifest: unknown circuit %s" c
    | None -> (
        match find_dup [] (List.map (fun c -> c.label) m.configs) with
        | Some l -> fail "manifest: duplicate config label %s" l
        | None -> (
            match
              List.find_opt
                (fun c ->
                  match c.fraction with
                  | Some f -> not (f > 0. && f <= 1.)
                  | None -> false)
                m.configs
            with
            | Some c ->
                fail "manifest: config %s: fraction out of (0, 1]" c.label
            | None -> Ok ()))

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

let algorithm_to_json = Flow.algorithm_to_json
let algorithm_of_json = Flow.algorithm_of_json
let mem name j = Option.value (Json.member name j) ~default:Json.Null
let ( let* ) = Result.bind

let config_to_json c =
  Json.Obj
    (("label", Json.String c.label)
     ::
     (match c.fraction with
     | Some f -> [ ("fraction", Json.Float f) ]
     | None -> [])
    @ if c.harden then [ ("harden", Json.Bool true) ] else [])

let config_of_json ?(default_label = "default") j =
  match j with
  | Json.Obj _ ->
      let label =
        match Json.to_string_opt (mem "label" j) with
        | Some l -> l
        | None -> default_label
      in
      let fraction = Json.to_float_opt (mem "fraction" j) in
      let* harden =
        match mem "harden" j with
        | Json.Null -> Ok false
        | Json.Bool b -> Ok b
        | _ -> Error "config \"harden\" must be a boolean"
      in
      Ok { label; fraction; harden }
  | _ -> Error "config must be an object"

let seeds_of_json = function
  | Json.List items ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Json.Int s :: rest -> go (s :: acc) rest
        | _ -> Error "seeds list must contain integers"
      in
      go [] items
  | Json.Obj _ as j -> (
      match
        (Json.to_int_opt (mem "base" j), Json.to_int_opt (mem "count" j))
      with
      | Some base, Some count when count >= 1 ->
          Ok (List.init count (fun i -> base + i))
      | _ -> Error "seeds object needs integer \"base\" and \"count\" >= 1")
  | _ -> Error "seeds must be a list or {\"base\", \"count\"}"

let to_json m =
  Json.Obj
    ([
       ("name", Json.String m.name);
       ("circuits", Json.List (List.map (fun c -> Json.String c) m.circuits));
       ("algorithms", Json.List (List.map algorithm_to_json m.algorithms));
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

let map_result f items =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
        match f i x with Ok y -> go (i + 1) (y :: acc) rest | Error _ as e -> e)
  in
  go 0 [] items

let of_json j =
  match j with
  | Json.Obj _ ->
      let* name =
        Option.to_result ~none:"manifest: missing \"name\""
          (Json.to_string_opt (mem "name" j))
      in
      let* circuits =
        match mem "circuits" j with
        | Json.List items ->
            map_result
              (fun _ c ->
                Option.to_result ~none:"manifest: circuits must be strings"
                  (Json.to_string_opt c))
              items
        | _ -> Error "manifest: missing \"circuits\" list"
      in
      let* algorithms =
        match mem "algorithms" j with
        | Json.Null -> Ok Flow.default_algorithms
        | Json.List items -> map_result (fun _ a -> algorithm_of_json a) items
        | _ -> Error "manifest: \"algorithms\" must be a list"
      in
      let* configs =
        match mem "configs" j with
        | Json.Null -> Ok [ default_config ]
        | Json.List items ->
            map_result
              (fun i c ->
                config_of_json ~default_label:("config-" ^ string_of_int i) c)
              items
        | _ -> Error "manifest: \"configs\" must be a list"
      in
      let* seeds =
        match mem "seeds" j with
        | Json.Null -> Error "manifest: missing \"seeds\""
        | s -> seeds_of_json s
      in
      let int_field name default =
        match mem name j with
        | Json.Null -> Ok default
        | Json.Int n -> Ok n
        | _ -> Error (Printf.sprintf "manifest: %S must be an integer" name)
      in
      let float_field name =
        match mem name j with
        | Json.Null -> Ok None
        | Json.Int n -> Ok (Some (float_of_int n))
        | Json.Float f -> Ok (Some f)
        | _ -> Error (Printf.sprintf "manifest: %S must be a number" name)
      in
      let* shards = int_field "shards" 1 in
      let* retries = int_field "retries" 2 in
      let* timeout_s = float_field "timeout_s" in
      let* attempt_timeout_s = float_field "attempt_timeout_s" in
      let* heartbeat_timeout_s =
        let* v = float_field "heartbeat_timeout_s" in
        Ok (Option.value v ~default:60.)
      in
      let* backend =
        match mem "backend" j with
        | Json.Null -> Ok "stt"
        | Json.String s -> Ok s
        | _ -> Error "manifest: \"backend\" must be a string"
      in
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
  | _ -> Error "manifest: not a JSON object"

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
