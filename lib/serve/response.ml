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

let ( let* ) = Result.bind

let verdict =
  let partial = Json.(record "verdict" (req "partial" number Fun.id)) in
  let read _ = function
    | Json.String "recovered" -> Stdlib.Ok Harness.Recovered
    | Json.String "resisted" -> Stdlib.Ok Harness.Resisted
    | j -> Result.map (fun f -> Harness.Partial f) (Json.decode partial j)
  in
  let write = function
    | Harness.Recovered -> Json.String "recovered"
    | Harness.Resisted -> Json.String "resisted"
    | Harness.Partial f -> Json.encode partial f
  in
  { Json.many = "values"; read; write }

(* a metrics snapshot as a field's value *)
let snapshot =
  let read must j = Result.bind (Json.obj.read must j) Metrics.of_json in
  { Json.obj with read; write = Metrics.to_json }

let entry =
  Json.(
    record "entry"
      (let+ attack = req "attack" string (fun e -> e.Harness.attack)
       and+ verdict = req "verdict" verdict (fun e -> e.Harness.verdict)
       and+ seconds = req "seconds" number (fun e -> e.Harness.seconds)
       and+ oracle_queries =
         req "oracle_queries" int (fun e -> e.Harness.oracle_queries)
       and+ detail = req "detail" string (fun e -> e.Harness.detail)
       and+ sat_stats = opt "sat_stats" snapshot (fun e -> e.Harness.sat_stats) in
       { Harness.attack; verdict; seconds; oracle_queries; detail; sat_stats }))

let campaign =
  Json.(
    record "campaign"
      (let+ circuit = req "circuit" string (fun c -> c.Harness.circuit)
       and+ algorithm = req "algorithm" string (fun c -> c.Harness.algorithm)
       and+ lut_count = req "lut_count" int (fun c -> c.Harness.lut_count)
       and+ entries =
         req "entries" (list (nested entry)) (fun c -> c.Harness.entries) in
       { Harness.circuit; algorithm; lut_count; entries }))

(* ---------- response codec ---------- *)

(* an ok payload's table holds its verb *)
let protect =
  Json.(
    record "response"
      (let+ () = tag "verb" "protect"
       and+ report = req "report" string (fun p -> p.report)
       and+ foundry_bench = opt "foundry_bench" string (fun p -> p.foundry_bench)
       and+ bitstream = opt "bitstream" string (fun p -> p.bitstream)
       and+ programming_cost =
         opt "programming_cost" string (fun p -> p.programming_cost)
       and+ verilog = opt "verilog" string (fun p -> p.verilog)
       and+ sign_off = opt "sign_off" bool (fun p -> p.sign_off) in
       { report; foundry_bench; bitstream; programming_cost; verilog; sign_off }))

let attack =
  Json.(
    record "response"
      (let+ () = tag "verb" "attack"
       and+ campaign = req "campaign" (nested campaign) fst
       and+ rendered = req "rendered" string snd in
       (campaign, rendered)))

let lint =
  Json.(
    record "response"
      (let+ () = tag "verb" "lint"
       and+ rendered = req "rendered" string (fun l -> l.rendered)
       and+ exit_code = req "exit_code" int (fun l -> l.exit_code) in
       { rendered; exit_code }))

let stats =
  Json.(
    record "response"
      (let+ () = tag "verb" "stats" and+ snap = req "metrics" snapshot Fun.id in
       snap))

let bare verb = Json.(record "response" (tag "verb" verb))
let pong = bare "ping"
let shutting_down = bare "shutdown"
let error = Json.(record "response" (req "message" string Fun.id))
let overloaded = Json.record "response" Json.no_fields

(* The fields every response carries, before its status's own *)
let header =
  Json.(
    record "response"
      (let+ id = opt "id" string fst and+ status = req "status" string snd in
       (id, status)))

let to_json t =
  let head id status = Json.emit header (id, status) in
  match t with
  | Ok { id; payload } ->
      let fields =
        match payload with
        | Protect p -> Json.emit protect p
        | Attack { campaign; rendered } -> Json.emit attack (campaign, rendered)
        | Lint l -> Json.emit lint l
        | Stats snap -> Json.emit stats snap
        | Pong -> Json.emit pong ()
        | Shutting_down -> Json.emit shutting_down ()
      in
      Json.Obj (head id "ok" @ fields)
  | Error { id; message } -> Json.Obj (head id "error" @ Json.emit error message)
  | Overloaded { id } -> Json.Obj (head id "overloaded")

let to_string t = Json.to_string ~minify:true (to_json t)

let of_json j =
  let* (id, status), rest = Json.take header j in
  let decode record wrap = Result.map wrap (Json.decode record rest) in
  match status with
  | "overloaded" -> decode overloaded (fun () -> Overloaded { id })
  | "error" -> decode error (fun message -> Error { id; message })
  | "ok" -> (
      let ok record wrap = decode record (fun x -> Ok { id; payload = wrap x }) in
      match Json.field "response" Json.string "verb" rest with
      | Stdlib.Ok "protect" -> ok protect (fun p -> Protect p)
      | Stdlib.Ok "attack" ->
          ok attack (fun (campaign, rendered) -> Attack { campaign; rendered })
      | Stdlib.Ok "lint" -> ok lint (fun l -> Lint l)
      | Stdlib.Ok "stats" -> ok stats (fun snap -> Stats snap)
      | Stdlib.Ok "ping" -> ok pong (fun () -> Pong)
      | Stdlib.Ok "shutdown" -> ok shutting_down (fun () -> Shutting_down)
      | Stdlib.Ok v -> Stdlib.Error ("response: unknown verb " ^ v)
      | Stdlib.Error _ as e -> e)
  | s -> Stdlib.Error ("response: unknown status " ^ s)

let of_string s =
  match Json.of_string s with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok j -> of_json j
