module Json = Sttc_obs.Json
module Flow = Sttc_core.Flow
module Manifest = Sttc_campaign.Manifest
module Harness = Sttc_attack.Harness

type source =
  | Named of string
  | Inline of { name : string; text : string }

type protect = {
  source : source;
  algorithm : Flow.algorithm;
  config : Manifest.config;
  seed : int;
  backend : string;
  sign_off : bool;
  emit_foundry : bool;
  emit_bitstream : bool;
  emit_verilog : bool;
  timing : bool;
}

type attack = {
  source : source;
  algorithm : Flow.algorithm;
  seed : int;
  backend : string;
  config : Harness.Config.t;
  timing : bool;
}

type lint = {
  source : source;
  algorithms : Flow.algorithm list;
  semantic : bool;
  seed : int;
  fraction : float option;
  budget : int option;
  rules : string list;
  suppress : string list;
  format : [ `Text | `Json ];
}

type payload =
  | Protect of protect
  | Attack of attack
  | Lint of lint
  | Stats
  | Ping of { sleep_s : float }
  | Shutdown

type t = { id : string option; timeout_s : float option; payload : payload }

let verb = function
  | Protect _ -> "protect"
  | Attack _ -> "attack"
  | Lint _ -> "lint"
  | Stats -> "stats"
  | Ping _ -> "ping"
  | Shutdown -> "shutdown"

(* ---------- encoding ---------- *)

let source_to_json = function
  | Named n -> Json.String n
  | Inline { name; text } ->
      Json.Obj [ ("name", Json.String name); ("bench", Json.String text) ]

let opt name f = function Some v -> [ (name, f v) ] | None -> []
let flag name b = if b then [ (name, Json.Bool true) ] else []

(* emitted only off its default so pre-backend requests render
   byte-identically *)
let non_default_backend b =
  if b = "stt" then [] else [ ("backend", Json.String b) ]

let to_json t =
  let common = opt "id" (fun s -> Json.String s) t.id in
  let budgeted = opt "timeout_s" (fun s -> Json.Float s) t.timeout_s in
  let fields =
    match t.payload with
    | Protect p ->
        [
          ("netlist", source_to_json p.source);
          ("algorithm", Flow.algorithm_to_json p.algorithm);
          ("config", Manifest.config_to_json p.config);
          ("seed", Json.Int p.seed);
        ]
        @ non_default_backend p.backend
        @ flag "sign_off" p.sign_off
        @ flag "emit_foundry" p.emit_foundry
        @ flag "emit_bitstream" p.emit_bitstream
        @ flag "emit_verilog" p.emit_verilog
        @ flag "timing" p.timing
    | Attack a ->
        [
          ("netlist", source_to_json a.source);
          ("algorithm", Flow.algorithm_to_json a.algorithm);
          ("seed", Json.Int a.seed);
          ("config", Harness.Config.to_json a.config);
        ]
        @ non_default_backend a.backend
        @ flag "timing" a.timing
    | Lint l ->
        [
          ("netlist", source_to_json l.source);
          ( "algorithms",
            Json.List (List.map Flow.algorithm_to_json l.algorithms) );
          ("seed", Json.Int l.seed);
        ]
        @ flag "semantic" l.semantic
        @ opt "fraction" (fun f -> Json.Float f) l.fraction
        @ opt "budget" (fun b -> Json.Int b) l.budget
        @ (if l.rules = [] then []
           else
             [ ("rules", Json.List (List.map (fun r -> Json.String r) l.rules)) ])
        @ (if l.suppress = [] then []
           else
             [
               ( "suppress",
                 Json.List (List.map (fun r -> Json.String r) l.suppress) );
             ])
        @ [
            ( "format",
              Json.String (match l.format with `Text -> "text" | `Json -> "json")
            );
          ]
    | Stats | Shutdown -> []
    | Ping { sleep_s } ->
        if sleep_s = 0. then [] else [ ("sleep_s", Json.Float sleep_s) ]
  in
  Json.Obj (common @ [ ("verb", Json.String (verb t.payload)) ] @ budgeted @ fields)

let to_string t = Json.to_string ~minify:true (to_json t)

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

let source_of_json ctx j =
  match Json.field ctx Json.any "netlist" j with
  | Ok (Json.String n) -> Ok (Named n)
  | Ok j -> (
      let* text = Json.field_opt "netlist" Json.string "bench" j in
      let* name = Json.field_opt "netlist" Json.string "name" j in
      match (text, name) with
      | Some text, name ->
          Ok (Inline { name = Option.value name ~default:"bench"; text })
      | None, Some n -> Ok (Named n)
      | None, None -> Error "netlist: needs \"bench\" or \"name\"")
  | Error _ as e -> e

let seed_of_json ctx j =
  Json.field_or ctx Json.int "seed" Sttc_experiments.Runner.master_seed j

(* The fields protect and attack share; a missing algorithm is the bare
   name (count 5).  The backend name is validated here so a typo fails
   the request parse, not the handler. *)
let common ctx j =
  let* source = source_of_json ctx j in
  let* algorithm =
    Result.bind
      (Json.field_or ctx Json.any "algorithm" (Json.String "independent") j)
      Flow.algorithm_of_json
  in
  let* seed = seed_of_json ctx j in
  let* backend = Json.field_or ctx Json.string "backend" "stt" j in
  match Sttc_backend.Backend.find backend with
  | Some _ -> Ok (source, algorithm, seed, backend)
  | None ->
      Error
        (Printf.sprintf "unknown backend %s (expected one of %s)" backend
           (String.concat ", " (Sttc_backend.Backend.names ())))

let protect_of_json j =
  let ctx = "protect" in
  let flag name = Json.field_or ctx Json.bool name false j in
  let* source, algorithm, seed, backend = common ctx j in
  let* config =
    Result.bind
      (Json.field_or ctx Json.obj "config" (Json.Obj []) j)
      Manifest.config_of_json
  in
  let* sign_off = flag "sign_off" in
  let* emit_foundry = flag "emit_foundry" in
  let* emit_bitstream = flag "emit_bitstream" in
  let* emit_verilog = flag "emit_verilog" in
  let* timing = flag "timing" in
  Ok
    (Protect
       {
         source;
         algorithm;
         config;
         seed;
         backend;
         sign_off;
         emit_foundry;
         emit_bitstream;
         emit_verilog;
         timing;
       })

let attack_of_json j =
  let ctx = "attack" in
  let* source, algorithm, seed, backend = common ctx j in
  let* config =
    Result.bind
      (Json.field_or ctx Json.obj "config" (Json.Obj []) j)
      Harness.Config.of_json
  in
  let* timing = Json.field_or ctx Json.bool "timing" false j in
  Ok (Attack { source; algorithm; seed; backend; config; timing })

let lint_of_json j =
  let ctx = "lint" in
  let* source = source_of_json ctx j in
  let* algorithms =
    Result.bind
      (Json.field_or ctx (Json.list Json.any) "algorithms" [] j)
      (fun items -> Json.all (List.map Flow.algorithm_of_json items))
  in
  let* semantic = Json.field_or ctx Json.bool "semantic" false j in
  let* seed = seed_of_json ctx j in
  let* fraction = Json.field_opt ctx Json.number "fraction" j in
  let* () =
    Json.in_range ctx "fraction" "in (0, 1]"
      (Option.fold ~none:true ~some:(fun f -> 0. < f && f <= 1.) fraction)
  in
  let* budget = Json.field_opt ctx Json.int "budget" j in
  let* rules = Json.field_or ctx (Json.list Json.string) "rules" [] j in
  let* suppress = Json.field_or ctx (Json.list Json.string) "suppress" [] j in
  let* format =
    match Json.field_or ctx Json.string "format" "text" j with
    | Ok "text" -> Ok `Text
    | Ok "json" -> Ok `Json
    | Ok _ -> Error "lint: \"format\" must be \"text\" or \"json\""
    | Error _ as e -> e
  in
  Ok
    (Lint
       { source; algorithms; semantic; seed; fraction; budget; rules; suppress; format })

let of_json j =
  let ctx = "frame" in
  let* id = Json.field_opt ctx Json.string "id" j in
  let* timeout_s = Json.field_opt ctx Json.number "timeout_s" j in
  let* payload =
    match Json.field ctx Json.string "verb" j with
    | Ok "protect" -> protect_of_json j
    | Ok "attack" -> attack_of_json j
    | Ok "lint" -> lint_of_json j
    | Ok "stats" -> Ok Stats
    | Ok "shutdown" -> Ok Shutdown
    | Ok "ping" ->
        let* sleep_s = Json.field_or "ping" Json.number "sleep_s" 0. j in
        Ok (Ping { sleep_s })
    | Ok v -> Error ("unknown verb " ^ v)
    | Error _ as e -> e
  in
  Ok { id; timeout_s; payload }

let of_string s =
  match Json.of_string s with Error e -> Error e | Ok j -> of_json j
