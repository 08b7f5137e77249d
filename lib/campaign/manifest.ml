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

let config_json =
  Json.(
    record "config"
      (let+ label = with_default "label" string "default" (fun c -> c.label)
       and+ fraction = opt "fraction" Flow.fraction (fun c -> c.fraction)
       and+ harden = omit_default "harden" bool false (fun c -> c.harden) in
       { label; fraction; harden }))

(* a manifest's configs list names an unlabelled config by position *)
let configs =
  let each = Json.list (Json.nested config_json) in
  let label i = function
    | Json.Obj kvs as c -> (
        match List.assoc_opt "label" kvs with
        | None | Some Json.Null ->
            Json.Obj (("label", Json.String ("config-" ^ string_of_int i)) :: kvs)
        | Some _ -> c)
    | c -> c
  in
  let read must = function
    | Json.List items -> each.read must (Json.List (List.mapi label items))
    | j -> each.read must j
  in
  { each with read }

(* a list, or a range the decoder expands into one, so its count is
   bounded *)
let seeds =
  let count = Json.(within "in [1, 1000000]" (fun c -> 1 <= c && c <= 1_000_000) int) in
  let range =
    Json.(
      record "seeds"
        (let+ base = req "base" int fst and+ count = req "count" count snd in
         (base, count)))
  in
  let each = Json.list Json.int in
  let read must = function
    | Json.List _ as j -> each.read must j
    | j -> Result.map (fun (base, n) -> List.init n (( + ) base)) (Json.decode range j)
  in
  { each with read }

let json =
  Json.(
    record "manifest"
      (let+ name = req "name" string (fun m -> m.name)
       and+ circuits = req "circuits" (list string) (fun m -> m.circuits)
       and+ algorithms =
         with_default "algorithms" (list Flow.algorithm_json)
           Flow.default_algorithms (fun m -> m.algorithms)
       and+ configs =
         with_default "configs" configs [ default_config ] (fun m -> m.configs)
       and+ seeds = req "seeds" seeds (fun m -> m.seeds)
       and+ shards =
         with_default "shards" (within "at least 1" (fun n -> n >= 1) int) 1
           (fun m -> m.shards)
       and+ retries = with_default "retries" nat 2 (fun m -> m.retries)
       and+ heartbeat_timeout_s =
         with_default "heartbeat_timeout_s"
           (within "positive" (fun s -> s > 0.) number)
           60.
           (fun m -> m.heartbeat_timeout_s)
       and+ timeout_s = opt "timeout_s" number (fun m -> m.timeout_s)
       and+ attempt_timeout_s =
         opt "attempt_timeout_s" number (fun m -> m.attempt_timeout_s)
       and+ backend = omit_default "backend" string "stt" (fun m -> m.backend) in
       { name; circuits; algorithms; configs; seeds; shards; timeout_s; retries;
         heartbeat_timeout_s; attempt_timeout_s; backend }))

let to_string m = Json.to_string (Json.encode json m) ^ "\n"

let of_string s =
  match Json.of_string s with
  | Error e -> Error ("manifest: " ^ e)
  | Ok j ->
      let* m = Json.decode json j in
      let* () = validate m in
      Ok m

let save path m = Sttc_obs.Export.write_text path (to_string m)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error ("manifest: " ^ e)
  | contents -> of_string contents
