(* serve-mix: `sttc serve -j 2` as a child process, driven closed-loop
   by two connections from this process.  A pass is one block of 100
   requests in a fixed mix — 40% lint of an inline 40-gate netlist, 20%
   protect of s1196 dependent, 10% protect of s5378a parametric, 5%
   attack of s27, 20% ping, 5% stats — in a seeded order, each
   connection sending its next request as soon as its previous reply
   arrives.  The light verbs spend their time on parse, queue and
   write-back; the heavy ones run the same Flow layers as protect-par
   but on warm, cached netlists with memoized base STA. *)

module Flow = Sttc_core.Flow
module Request = Sttc_serve.Request
module Response = Sttc_serve.Response
module Client = Sttc_serve.Client

(* Protect seeds come from a per-workload pool: enough distinct requests
   to average over selections, few enough that every distinct request is
   checked against the offline handler.  Attacks protect s27 at the
   paper's master seed: one attack costs 60 ms to over 1 s depending on
   the selection, which would make a block's time a draw of the pool. *)
let pool_size = 8

type entry = { verb : string; frame : Request.t; text : string }

let frame payload = { Request.id = None; timeout_s = None; payload }

let protect ~circuit ~algorithm ~seed =
  frame
    (Request.Protect
       {
         source = Request.Named circuit;
         algorithm;
         config = Sttc_campaign.Manifest.default_config;
         seed;
         backend = "stt";
         sign_off = false;
         emit_foundry = false;
         emit_bitstream = false;
         emit_verilog = false;
         timing = false;
       })

let attack =
  frame
    (Request.Attack
       {
         source = Request.Named "s27";
         algorithm = Flow.Dependent;
         seed = Sttc_experiments.Runner.master_seed;
         backend = "stt";
         config = Sttc_attack.Harness.Config.default;
         timing = false;
       })

let lint ~text ~seed =
  frame
    (Request.Lint
       {
         source = Request.Inline { name = "inline40"; text };
         algorithms = [];
         semantic = false;
         seed;
         fraction = None;
         budget = None;
         rules = [];
         suppress = [];
         format = `Json;
       })

(* the mix, as (verb, count, request of the i-th pool seed) *)
let mix ~toy ~text ~seed =
  let par = Flow.Parametric Sttc_core.Algorithms.default_parametric in
  let big, mid = if toy then ("s27", "s27") else ("s5378a", "s1196") in
  let k = if toy then 1 else 2 in
  [
    ("lint", 20 * k, fun _ -> lint ~text ~seed);
    ("protect", 10 * k, fun s -> protect ~circuit:mid ~algorithm:Flow.Dependent ~seed:s);
    ("protect", 5 * k, fun s -> protect ~circuit:big ~algorithm:par ~seed:s);
    ("attack", (if toy then 3 else 5), fun _ -> attack);
    ("ping", 10 * k, fun _ -> frame (Request.Ping { sleep_s = 0. }));
    ("stats", (if toy then 2 else 5), fun _ -> frame Request.Stats);
  ]

(* Block [b]: the mix with pool seeds assigned round-robin from a
   block-dependent offset, in an order shuffled by (seed, b). *)
let block ~toy ~text ~seed ~pool b =
  let entries =
    List.concat_map
      (fun (verb, n, make) ->
        List.init n (fun i ->
            let frame = make pool.(((b * n) + i) mod pool_size) in
            { verb; frame; text = Request.to_string frame }))
      (mix ~toy ~text ~seed)
  in
  let a = Array.of_list entries in
  Sttc_util.Rng.shuffle (Sttc_util.Rng.make ((seed * 7919) + b)) a;
  a

(* The attack verb's brute-force entry reports a measured candidate rate
   (and the years derived from it) even when [timing] is false; mask it
   so replies compare byte for byte. *)
let measured_rate = Str.regexp "~[^ ]* years at [0-9]+ cand/s"
let mask_rate reply = Str.global_replace measured_rate "~? years at ? cand/s" reply

let ok_response = function Some (Ok (Response.Ok _)) -> true | _ -> false

(* ---------- the daemon ---------- *)

type daemon = { pid : int; socket : string; conns : Client.t array }

let rec connect socket tries =
  match Client.connect socket with
  | Ok c -> c
  | Error e ->
      if tries = 0 then failwith ("daemon never accepted on " ^ socket ^ ": " ^ e);
      Unix.sleepf 0.01;
      connect socket (tries - 1)

let spawn ~sttc ~socket ~log =
  if Sys.file_exists socket then Sys.remove socket;
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) @@ fun () ->
    Unix.create_process sttc
      [| sttc; "serve"; "--socket"; socket; "-j"; "2" |]
      Unix.stdin out out
  in
  match Array.init 2 (fun _ -> connect socket 1500) with
  | conns -> { pid; socket; conns }
  | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      raise e

let shutdown d =
  ignore (Client.request d.conns.(0) (frame Request.Shutdown));
  Array.iter Client.close d.conns;
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait 1000;
  if Sys.file_exists d.socket then Sys.remove d.socket

(* ---------- the workload ---------- *)

let setup { Workload.toy; seed; sttc; scratch } =
  let rng = Sttc_util.Rng.make seed in
  let pool = Array.init pool_size (fun _ -> 1 + Sttc_util.Rng.int rng 1_000_000) in
  let text =
    Sttc_netlist.Bench_io.to_string
      (Sttc_netlist.Generator.generate ~seed
         {
           Sttc_netlist.Generator.design_name = "inline40";
           n_pi = 8;
           n_po = 6;
           n_ff = 0;
           n_gates = 40;
           levels = 5;
         })
  in
  let d = spawn ~sttc ~socket:(scratch ^ ".sock") ~log:(scratch ^ ".serve.log") in
  let blocks = ref 0 in
  (* distinct request -> the daemon's first reply *)
  let replies = Hashtbl.create 64 in
  (* distinct request -> its client latencies, and the last block *)
  let client_s = Hashtbl.create 64 in
  let last = ref [||] in
  let pass () =
    let reqs = block ~toy ~text ~seed ~pool !blocks in
    incr blocks;
    let n = Array.length reqs in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let client conn () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r = reqs.(i) in
          let op, reply = Workload.timed ("serve." ^ r.verb) (fun () -> Client.request conn r.frame) in
          results.(i) <- Some (op, reply);
          go ()
        end
      in
      go ()
    in
    List.iter Domain.join (List.map (fun c -> Domain.spawn (client c)) (Array.to_list d.conns));
    last := Array.map2 (fun r x -> (r, x)) reqs results;
    Array.to_list
      (Array.map2
         (fun r x ->
           match x with
           | Some (op, reply) ->
               Hashtbl.replace client_s r.text
                 (op.Workload.seconds :: Option.value (Hashtbl.find_opt client_s r.text) ~default:[]);
               (match reply with
               | Some (Ok resp) when r.verb <> "stats" && not (Hashtbl.mem replies r.text) ->
                   Hashtbl.replace replies r.text (r.frame, mask_rate (Response.to_string resp))
               | _ -> ());
               { op with Workload.ok = ok_response reply }
           | None -> { Workload.kind = "serve." ^ r.verb; seconds = 0.; ok = false })
         reqs results)
  in
  (* probe: the handler alone on a warm offline session, the frame codec,
     and the daemon's own counters *)
  let session = Sttc_serve.Session.create () in
  let handler_s = Hashtbl.create 64 in
  let codec = ref [] in
  let counters = ref [] in
  let probe () =
    Hashtbl.iter
      (fun text (frame, _) ->
        let verb = Request.verb frame.Request.payload in
        let t0 = Workload.now () in
        ignore (Workload.span ("serve.handler." ^ verb) (fun () -> Sttc_serve.Handler.handle session frame));
        Hashtbl.replace handler_s text
          ((Workload.now () -. t0) :: Option.value (Hashtbl.find_opt handler_s text) ~default:[]))
      replies;
    let t0 = Workload.now () in
    Workload.span "serve.codec" (fun () ->
        Array.iter
          (fun (r, x) ->
            ignore (Request.of_string r.text);
            match x with
            | Some (_, Some (Ok resp)) -> ignore (Response.to_string resp)
            | _ -> ())
          !last);
    codec := ((Workload.now () -. t0) /. float_of_int (max 1 (Array.length !last))) :: !codec;
    match Client.request d.conns.(0) (frame Request.Stats) with
    | Ok (Response.Ok { payload = Response.Stats snap; _ }) -> counters := snap
    | _ -> ()
  in
  let checks () =
    let offline = Sttc_serve.Session.create () in
    Hashtbl.fold
      (fun text (frame, daemon) acc ->
        ( "daemon == offline " ^ text,
          mask_rate (Response.to_string (Sttc_serve.Handler.handle offline frame)) = daemon )
        :: acc)
      replies []
    |> List.sort compare
  in
  let latencies passes verb =
    List.map (fun s -> s *. 1000.)
      (if verb = "" then
         List.concat_map
           (fun (p : Workload.pass) -> List.map (fun (o : Workload.op) -> o.seconds) p.ops)
           passes
       else Workload.seconds_of ("serve." ^ verb) passes)
  in
  (* Client latency and throughput.  p99 once at least ten samples lie
     beyond it (a full run sends about 2000 requests). *)
  let user_metrics passes =
    let all = latencies passes "" in
    let wall = List.fold_left (fun acc (p : Workload.pass) -> acc +. p.wall) 0. passes in
    [
      Workload.metric "serve_req_per_s" "1/s" (float_of_int (List.length all) /. wall);
      Workload.metric "serve_p50_ms" "ms" (Summary.median all);
    ]
    @ (if List.length all < 1000 then []
       else [ Workload.metric "serve_p99_ms" "ms" (Sttc_util.Stats.percentile 99. all) ])
    @ List.map
        (fun verb ->
          Workload.metric
            (Printf.sprintf "serve.client_%s_p50_ms" verb)
            "ms"
            (Summary.median (latencies passes verb)))
        [ "ping"; "lint"; "protect"; "attack" ]
  in
  (* Summed over one block's requests of a verb, each weighted by how
     often the block sends it: median seconds per distinct request. *)
  let block_sum table verb =
    Array.fold_left
      (fun acc (r, _) ->
        if verb <> "" && r.verb <> verb then acc
        else acc +. Summary.median (Option.value (Hashtbl.find_opt table r.text) ~default:[]))
      0. !last
  in
  let layer_metrics (_ : Workload.traced) =
    let per_block name =
      float_of_int (Sttc_obs.Metrics.counter_value !counters name)
      /. float_of_int (max 1 !blocks)
    in
    (* what the handler takes of the client latency; the rest is parse,
       queue and write-back *)
    List.map
      (fun verb ->
        Workload.metric
          (Printf.sprintf "serve.handler_%s_pct" verb)
          "%"
          (Workload.share (block_sum handler_s verb) (block_sum client_s verb)))
      [ "lint"; "protect"; "attack" ]
    @ [
        Workload.metric "serve.codec_pct" "%"
          (Workload.share
             (Summary.median !codec *. float_of_int (Array.length !last))
             (block_sum client_s ""));
      ]
    @ List.map
        (fun n -> Workload.metric n "count" (per_block n))
        [
          "serve.cache_hits"; "serve.cache_misses"; "serve.sta_cache_hits";
          "serve.sta_cache_misses"; "serve.overloaded"; "serve.errors";
        ]
  in
  {
    Workload.pass;
    probe;
    checks;
    digest =
      (fun () ->
        Workload.digest_strings
          (List.sort compare (Hashtbl.fold (fun text (_, reply) acc -> (text ^ "\n" ^ reply) :: acc) replies [])));
    (* one operation is one block: a single request's sub-millisecond
       latency moves by half from run to run with the host's load, a
       block's time by about a tenth *)
    op_ms = Workload.pass_op_ms;
    user_metrics;
    layer_metrics;
    peak_rss_mb = (fun () -> Workload.vm_hwm_mb (string_of_int d.pid));
    close = (fun () -> shutdown d);
  }

let workload =
  {
    Workload.name = "serve-mix";
    why =
      "a daemon under 2 closed-loop connections, 100-request blocks of \
       lint/protect/attack/ping/stats: parse, queue and write-back on warm \
       netlists";
    op = "one block of 100 requests";
    jobs = 2;
    layers =
      List.map (fun v -> "serve." ^ v) [ "lint"; "protect"; "attack"; "ping"; "stats" ]
      @ List.map (fun v -> "serve.handler." ^ v) [ "lint"; "protect"; "attack"; "ping" ]
      @ [ "serve.codec" ];
    setup;
  }
