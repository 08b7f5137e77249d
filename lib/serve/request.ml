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

(* ---------- codec ---------- *)

let ( let* ) = Result.bind

(* A bundled benchmark's name, or inline .bench text with an optional
   design name *)
let source =
  let inline =
    Json.(
      record "netlist"
        (let+ name = opt "name" string fst and+ text = opt "bench" string snd in
         (name, text)))
  in
  let read _ = function
    | Json.String n -> Ok (Named n)
    | j -> (
        match Json.decode inline j with
        | Ok (name, Some text) ->
            Ok (Inline { name = Option.value name ~default:"bench"; text })
        | Ok (Some n, None) -> Ok (Named n)
        | Ok (None, None) -> Error "netlist: needs \"bench\" or \"name\""
        | Error e -> Error e)
  in
  let write = function
    | Named n -> Json.String n
    | Inline { name; text } -> Json.encode inline (Some name, Some text)
  in
  { Json.many = "values"; read; write }

(* The backend name is checked here so a typo fails the request parse,
   not the handler; it is emitted only off its default so pre-backend
   requests render byte-identically. *)
let backend =
  let read must j =
    let* b = Json.string.read must j in
    if Option.is_some (Sttc_backend.Backend.find b) then Ok b
    else
      Error
        (Printf.sprintf "unknown backend %s (expected one of %s)" b
           (String.concat ", " (Sttc_backend.Backend.names ())))
  in
  { Json.string with read }

let seed = Sttc_experiments.Runner.master_seed
let bare_independent = Flow.Independent { count = 5 }
let flag name proj = Json.(omit_default name bool false proj)

let protect =
  Json.(
    record "protect"
      (let+ source = req "netlist" source (fun (p : protect) -> p.source)
       and+ algorithm =
         with_default "algorithm" Flow.algorithm_json bare_independent
           (fun (p : protect) -> p.algorithm)
       and+ config =
         with_default "config" (nested Manifest.config_json)
           Manifest.default_config (fun (p : protect) -> p.config)
       and+ seed = with_default "seed" int seed (fun (p : protect) -> p.seed)
       and+ backend =
         omit_default "backend" backend "stt" (fun (p : protect) -> p.backend)
       and+ sign_off = flag "sign_off" (fun p -> p.sign_off)
       and+ emit_foundry = flag "emit_foundry" (fun p -> p.emit_foundry)
       and+ emit_bitstream = flag "emit_bitstream" (fun p -> p.emit_bitstream)
       and+ emit_verilog = flag "emit_verilog" (fun p -> p.emit_verilog)
       and+ timing = flag "timing" (fun (p : protect) -> p.timing) in
       { source; algorithm; config; seed; backend; sign_off; emit_foundry;
         emit_bitstream; emit_verilog; timing }))

let attack =
  Json.(
    record "attack"
      (let+ source = req "netlist" source (fun (a : attack) -> a.source)
       and+ algorithm =
         with_default "algorithm" Flow.algorithm_json bare_independent
           (fun (a : attack) -> a.algorithm)
       and+ seed = with_default "seed" int seed (fun (a : attack) -> a.seed)
       and+ config =
         with_default "config" (nested Harness.Config.json)
           Harness.Config.default (fun (a : attack) -> a.config)
       and+ backend =
         omit_default "backend" backend "stt" (fun (a : attack) -> a.backend)
       and+ timing = flag "timing" (fun (a : attack) -> a.timing) in
       { source; algorithm; seed; backend; config; timing }))

let lint =
  Json.(
    record "lint"
      (let+ source = req "netlist" source (fun l -> l.source)
       and+ algorithms =
         with_default "algorithms" (list Flow.algorithm_json) [] (fun l ->
             l.algorithms)
       and+ seed = with_default "seed" int seed (fun l -> l.seed)
       and+ semantic = flag "semantic" (fun l -> l.semantic)
       and+ fraction = opt "fraction" Flow.fraction (fun l -> l.fraction)
       and+ budget = opt "budget" nat (fun l -> l.budget)
       and+ rules = omit_default "rules" (list string) [] (fun l -> l.rules)
       and+ suppress =
         omit_default "suppress" (list string) [] (fun l -> l.suppress)
       and+ format =
         with_default "format" (enum [ ("text", `Text); ("json", `Json) ]) `Text
           (fun l -> l.format)
       in
       { source; algorithms; semantic; seed; fraction; budget; rules; suppress;
         format }))

let ping = Json.(record "ping" (omit_default "sleep_s" duration 0. Fun.id))
let stats = Json.record "stats" Json.no_fields
let shutdown = Json.record "shutdown" Json.no_fields

(* The fields every frame carries, before its verb's own *)
let header =
  Json.(
    record "frame"
      (let+ id = opt "id" string (fun (id, _, _) -> id)
       and+ verb = req "verb" string (fun (_, verb, _) -> verb)
       and+ timeout_s = opt "timeout_s" duration (fun (_, _, t) -> t) in
       (id, verb, timeout_s)))

let to_json t =
  let fields =
    match t.payload with
    | Protect p -> Json.emit protect p
    | Attack a -> Json.emit attack a
    | Lint l -> Json.emit lint l
    | Stats -> Json.emit stats ()
    | Ping { sleep_s } -> Json.emit ping sleep_s
    | Shutdown -> Json.emit shutdown ()
  in
  Json.Obj (Json.emit header (t.id, verb t.payload, t.timeout_s) @ fields)

let to_string t = Json.to_string ~minify:true (to_json t)

let of_json j =
  let* (id, verb, timeout_s), rest = Json.take header j in
  let decode record wrap = Result.map wrap (Json.decode record rest) in
  let* payload =
    match verb with
    | "protect" -> decode protect (fun p -> Protect p)
    | "attack" -> decode attack (fun a -> Attack a)
    | "lint" -> decode lint (fun l -> Lint l)
    | "stats" -> decode stats (fun () -> Stats)
    | "ping" -> decode ping (fun sleep_s -> Ping { sleep_s })
    | "shutdown" -> decode shutdown (fun () -> Shutdown)
    | v -> Error ("unknown verb " ^ v)
  in
  Ok { id; timeout_s; payload }

let of_string s =
  match Json.of_string s with Error e -> Error e | Ok j -> of_json j
