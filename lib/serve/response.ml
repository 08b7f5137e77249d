module Json = Sttc_obs.Json
module Metrics = Sttc_obs.Metrics
module Harness = Sttc_attack.Harness

type protect = {
  report : string;
  foundry_bench : string option;
  bitstream : string option;
  programming_cost : string option;
  verilog : string option;
  sign_off : bool option;
}

type lint = { rendered : string; exit_code : int }

type payload =
  | Protect of protect
  | Attack of { campaign : Harness.campaign; rendered : string }
  | Lint of lint
  | Stats of Metrics.snapshot
  | Pong
  | Shutting_down

type t =
  | Ok of { id : string option; payload : payload }
  | Error of { id : string option; message : string }
  | Overloaded of { id : string option }

(* ---------- campaign codec ---------- *)

let verdict_to_json = function
  | Harness.Recovered -> Json.String "recovered"
  | Harness.Resisted -> Json.String "resisted"
  | Harness.Partial f -> Json.Obj [ ("partial", Json.Float f) ]

let ( let* ) = Result.bind

let verdict_of_json = function
  | Json.String "recovered" -> Stdlib.Ok Harness.Recovered
  | Json.String "resisted" -> Stdlib.Ok Harness.Resisted
  | j ->
      let* f = Json.field "verdict" Json.number "partial" j in
      Stdlib.Ok (Harness.Partial f)

let entry_to_json (e : Harness.entry) =
  Json.Obj
    ([
       ("attack", Json.String e.attack);
       ("verdict", verdict_to_json e.verdict);
       ("seconds", Json.Float e.seconds);
       ("oracle_queries", Json.Int e.oracle_queries);
       ("detail", Json.String e.detail);
     ]
    @
    match e.sat_stats with
    | Some snap -> [ ("sat_stats", Metrics.to_json snap) ]
    | None -> [])

let entry_of_json j =
  let ctx = "entry" in
  let* attack = Json.field ctx Json.string "attack" j in
  let* verdict =
    Result.bind (Json.field ctx Json.any "verdict" j) verdict_of_json
  in
  let* seconds = Json.field ctx Json.number "seconds" j in
  let* oracle_queries = Json.field ctx Json.int "oracle_queries" j in
  let* detail = Json.field ctx Json.string "detail" j in
  let* sat_stats =
    match Json.field_opt ctx Json.obj "sat_stats" j with
    | Stdlib.Ok (Some s) -> Result.map Option.some (Metrics.of_json s)
    | Stdlib.Ok None -> Stdlib.Ok None
    | Stdlib.Error _ as e -> e
  in
  Stdlib.Ok
    { Harness.attack; verdict; seconds; oracle_queries; detail; sat_stats }

let campaign_to_json (c : Harness.campaign) =
  Json.Obj
    [
      ("circuit", Json.String c.circuit);
      ("algorithm", Json.String c.algorithm);
      ("lut_count", Json.Int c.lut_count);
      ("entries", Json.List (List.map entry_to_json c.entries));
    ]

let campaign_of_json j =
  let ctx = "campaign" in
  let* circuit = Json.field ctx Json.string "circuit" j in
  let* algorithm = Json.field ctx Json.string "algorithm" j in
  let* lut_count = Json.field ctx Json.int "lut_count" j in
  let* entries = Json.field ctx (Json.list Json.obj) "entries" j in
  let* entries = Json.all (List.map entry_of_json entries) in
  Stdlib.Ok { Harness.circuit; algorithm; lut_count; entries }

(* ---------- response codec ---------- *)

let opt name f = function Some v -> [ (name, f v) ] | None -> []

let payload_verb = function
  | Protect _ -> "protect"
  | Attack _ -> "attack"
  | Lint _ -> "lint"
  | Stats _ -> "stats"
  | Pong -> "ping"
  | Shutting_down -> "shutdown"

let to_json t =
  match t with
  | Ok { id; payload } ->
      let fields =
        match payload with
        | Protect p ->
            [ ("report", Json.String p.report) ]
            @ opt "foundry_bench" (fun s -> Json.String s) p.foundry_bench
            @ opt "bitstream" (fun s -> Json.String s) p.bitstream
            @ opt "programming_cost" (fun s -> Json.String s) p.programming_cost
            @ opt "verilog" (fun s -> Json.String s) p.verilog
            @ opt "sign_off" (fun b -> Json.Bool b) p.sign_off
        | Attack { campaign; rendered } ->
            [
              ("campaign", campaign_to_json campaign);
              ("rendered", Json.String rendered);
            ]
        | Lint l ->
            [
              ("rendered", Json.String l.rendered);
              ("exit_code", Json.Int l.exit_code);
            ]
        | Stats snap -> [ ("metrics", Metrics.to_json snap) ]
        | Pong | Shutting_down -> []
      in
      Json.Obj
        (opt "id" (fun s -> Json.String s) id
        @ [
            ("status", Json.String "ok");
            ("verb", Json.String (payload_verb payload));
          ]
        @ fields)
  | Error { id; message } ->
      Json.Obj
        (opt "id" (fun s -> Json.String s) id
        @ [ ("status", Json.String "error"); ("message", Json.String message) ])
  | Overloaded { id } ->
      Json.Obj
        (opt "id" (fun s -> Json.String s) id
        @ [ ("status", Json.String "overloaded") ])

let to_string t = Json.to_string ~minify:true (to_json t)

let of_json j =
  let ctx = "response" in
  let str name = Json.field ctx Json.string name j in
  let opt_str name = Json.field_opt ctx Json.string name j in
  let* id = opt_str "id" in
  match str "status" with
  | Stdlib.Ok "overloaded" -> Stdlib.Ok (Overloaded { id })
  | Stdlib.Ok "error" ->
      let* message = str "message" in
      Stdlib.Ok (Error { id; message })
  | Stdlib.Ok "ok" ->
      let* payload =
        match str "verb" with
        | Stdlib.Ok "protect" ->
            let* report = str "report" in
            let* foundry_bench = opt_str "foundry_bench" in
            let* bitstream = opt_str "bitstream" in
            let* programming_cost = opt_str "programming_cost" in
            let* verilog = opt_str "verilog" in
            let* sign_off = Json.field_opt ctx Json.bool "sign_off" j in
            Stdlib.Ok
              (Protect
                 {
                   report;
                   foundry_bench;
                   bitstream;
                   programming_cost;
                   verilog;
                   sign_off;
                 })
        | Stdlib.Ok "attack" ->
            let* campaign = Json.field ctx Json.obj "campaign" j in
            let* campaign = campaign_of_json campaign in
            let* rendered = str "rendered" in
            Stdlib.Ok (Attack { campaign; rendered })
        | Stdlib.Ok "lint" ->
            let* rendered = str "rendered" in
            let* exit_code = Json.field ctx Json.int "exit_code" j in
            Stdlib.Ok (Lint { rendered; exit_code })
        | Stdlib.Ok "stats" ->
            let* snap =
              Result.bind (Json.field ctx Json.obj "metrics" j) Metrics.of_json
            in
            Stdlib.Ok (Stats snap)
        | Stdlib.Ok "ping" -> Stdlib.Ok Pong
        | Stdlib.Ok "shutdown" -> Stdlib.Ok Shutting_down
        | Stdlib.Ok v -> Stdlib.Error ("response: unknown verb " ^ v)
        | Stdlib.Error _ as e -> e
      in
      Stdlib.Ok (Ok { id; payload })
  | Stdlib.Ok s -> Stdlib.Error ("response: unknown status " ^ s)
  | Stdlib.Error _ as e -> e

let of_string s =
  match Json.of_string s with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok j -> of_json j
