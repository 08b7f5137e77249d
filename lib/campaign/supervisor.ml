module Metrics = Sttc_obs.Metrics
module Pool = Sttc_util.Pool

type cause =
  | Exited of int
  | Signaled of int
  | Stalled of float
  | Hung of float
  | Bad_result of string
  | Crashed of string

(* OCaml's Sys signal numbers are negative codes of their own; name the
   ones a worker plausibly dies from. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigbus then "SIGBUS"
  else "signal " ^ string_of_int s

let cause_to_string = function
  | Exited n -> Printf.sprintf "exit %d" n
  | Signaled s -> signal_name s
  | Stalled s -> Printf.sprintf "heartbeat silent %.1fs" s
  | Hung s -> Printf.sprintf "attempt ran %.1fs past spawn" s
  | Bad_result r -> "bad result: " ^ r
  | Crashed r -> "crashed: " ^ r

type event =
  | Spawned of { shard : int; attempt : int; pid : int }
  | Completed of { shard : int; attempt : int }
  | Attempt_failed of {
      shard : int;
      attempt : int;
      cause : cause;
      backoff_s : float;
    }
  | Degraded of { shard : int; attempts : int; cause : cause }

let string_of_event = function
  | Spawned { shard; attempt; pid } ->
      Printf.sprintf "shard %d: attempt %d spawned (pid %d)" shard attempt pid
  | Completed { shard; attempt } ->
      Printf.sprintf "shard %d: complete (attempt %d)" shard attempt
  | Attempt_failed { shard; attempt; cause; backoff_s } ->
      Printf.sprintf "shard %d: attempt %d failed (%s); retry in %.2fs" shard
        attempt (cause_to_string cause) backoff_s
  | Degraded { shard; attempts; cause } ->
      Printf.sprintf "shard %d: DEGRADED after %d attempts (%s)" shard attempts
        (cause_to_string cause)

type shard_status = Complete | Exhausted of { attempts : int; last : cause }

type outcome = {
  statuses : (int * shard_status) list;
  retries : int;
  respawns : int;
  heartbeat_misses : int;
  degraded : int;
}

type worker =
  | Spawn of (dir:string -> shard:int -> attempt:int -> string array)
  | In_process

let default_spawn =
  Spawn
    (fun ~dir ~shard ~attempt ->
      [|
        Sys.executable_name;
        "worker";
        "--dir";
        dir;
        "--shard";
        string_of_int shard;
        "--attempt";
        string_of_int attempt;
      |])

type config = {
  dir : string;
  manifest : Manifest.t;
  jobs : int;
  retries : int option;
  backoff_base_s : float;
  backoff_cap_s : float;
  poll_interval_s : float;
  worker : worker;
  on_event : event -> unit;
}

let config ?(jobs = 2) ?retries ?(backoff_base_s = 0.25) ?(backoff_cap_s = 10.)
    ?(poll_interval_s = 0.05) ?(worker = default_spawn) ?(on_event = ignore)
    ~dir ~manifest () =
  {
    dir;
    manifest;
    jobs = max 1 jobs;
    retries;
    backoff_base_s;
    backoff_cap_s;
    poll_interval_s;
    worker;
    on_event;
  }

let backoff_s cfg ~attempt =
  (* attempt >= 2: the first retry waits the base, each further one
     doubles, deterministically (reproducible schedules; no jitter). *)
  Float.min cfg.backoff_cap_s
    (cfg.backoff_base_s *. (2. ** float_of_int (max 0 (attempt - 2))))

(* {2 The supervision loop} *)

type running = {
  pid : int;
  attempt : int;
  started : float;
  mutable hb : string;
  mutable hb_at : float;
}

type state =
  | Pending of { attempt : int; not_before : float }
  | Running of running
  | Done
  | Dead of { attempts : int; last : cause }

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let counters =
  [
    "campaign.shard_retries";
    "campaign.worker_respawns";
    "campaign.heartbeat_misses";
    "campaign.shards_degraded";
    "campaign.shards_completed";
  ]

let run cfg =
  let m = cfg.manifest in
  let dir = cfg.dir in
  Shard.prepare_dir dir;
  (* seed the counters so the series exist even in an uneventful run *)
  List.iter (fun c -> Metrics.incr ~by:0 c) counters;
  let budget = Option.value cfg.retries ~default:m.Manifest.retries in
  let max_attempts = budget + 1 in
  let n = m.Manifest.shards in
  let states =
    Array.init n (fun shard ->
        match Shard.load_result ~dir ~shard with
        | Ok (_ : Shard.row list) -> Done
        | Error _ -> Pending { attempt = 1; not_before = 0. })
  in
  let retries = ref 0
  and respawns = ref 0
  and hb_misses = ref 0
  and degraded = ref 0 in
  let now () = Pool.now_s () in
  let complete shard attempt =
    states.(shard) <- Done;
    Metrics.incr "campaign.shards_completed";
    cfg.on_event (Completed { shard; attempt })
  in
  let fail shard attempt cause =
    (match cause with
    | Stalled _ ->
        incr hb_misses;
        Metrics.incr "campaign.heartbeat_misses"
    | _ -> ());
    if attempt >= max_attempts then (
      states.(shard) <- Dead { attempts = attempt; last = cause };
      incr degraded;
      Metrics.incr "campaign.shards_degraded";
      cfg.on_event (Degraded { shard; attempts = attempt; cause }))
    else
      let b = backoff_s cfg ~attempt:(attempt + 1) in
      states.(shard) <- Pending { attempt = attempt + 1; not_before = now () +. b };
      incr retries;
      Metrics.incr "campaign.shard_retries";
      cfg.on_event (Attempt_failed { shard; attempt; cause; backoff_s = b })
  in
  let finish shard attempt = function
    | Ok () -> (
        (* exit 0 is a claim, not proof: the result must load *)
        match Shard.load_result ~dir ~shard with
        | Ok (_ : Shard.row list) -> complete shard attempt
        | Error e ->
            fail shard attempt (Bad_result (Sttc_util.Ckpt.error_to_string e)))
    | Error cause -> fail shard attempt cause
  in
  let note_respawn attempt =
    if attempt > 1 then (
      incr respawns;
      Metrics.incr "campaign.worker_respawns")
  in
  let start shard attempt =
    match cfg.worker with
    | In_process ->
        note_respawn attempt;
        cfg.on_event (Spawned { shard; attempt; pid = Unix.getpid () });
        let res =
          match Worker.run ~dir ~shard ~attempt () with
          | Ok (_ : Worker.outcome) -> Ok ()
          | Error e -> Error (Crashed e)
          | exception e -> Error (Crashed (Printexc.to_string e))
        in
        finish shard attempt res
    | Spawn argv_of ->
        let argv = argv_of ~dir ~shard ~attempt in
        let log = Shard.log_path ~dir ~shard ~attempt in
        let fd =
          Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        let pid =
          Fun.protect
            ~finally:(fun () ->
              Unix.close fd;
              Unix.close null)
            (fun () -> Unix.create_process argv.(0) argv null fd fd)
        in
        note_respawn attempt;
        cfg.on_event (Spawned { shard; attempt; pid });
        let t = now () in
        let hb =
          Option.value (read_file (Shard.heartbeat_path ~dir shard)) ~default:""
        in
        states.(shard) <- Running { pid; attempt; started = t; hb; hb_at = t }
  in
  let kill_and_reap pid =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
  in
  let poll shard (r : running) =
    match Unix.waitpid [ Unix.WNOHANG ] r.pid with
    | exception Unix.Unix_error (e, _, _) ->
        finish shard r.attempt
          (Error (Crashed ("waitpid: " ^ Unix.error_message e)))
    | 0, _ -> (
        let t = now () in
        (match read_file (Shard.heartbeat_path ~dir shard) with
        | Some c when c <> r.hb ->
            r.hb <- c;
            r.hb_at <- t
        | _ -> ());
        let silent = t -. r.hb_at in
        if silent > m.Manifest.heartbeat_timeout_s then (
          kill_and_reap r.pid;
          finish shard r.attempt (Error (Stalled silent)))
        else
          match m.Manifest.attempt_timeout_s with
          | Some limit when t -. r.started > limit ->
              kill_and_reap r.pid;
              finish shard r.attempt (Error (Hung (t -. r.started)))
          | _ -> ())
    | _, Unix.WEXITED 0 -> finish shard r.attempt (Ok ())
    | _, Unix.WEXITED c -> finish shard r.attempt (Error (Exited c))
    | _, Unix.WSIGNALED s | _, Unix.WSTOPPED s ->
        finish shard r.attempt (Error (Signaled s))
  in
  let unfinished () =
    Array.exists (function Pending _ | Running _ -> true | _ -> false) states
  in
  while unfinished () do
    let running_count =
      Array.fold_left
        (fun acc -> function Running _ -> acc + 1 | _ -> acc)
        0 states
    in
    let slots = ref (cfg.jobs - running_count) in
    Array.iteri
      (fun shard st ->
        match st with
        | Pending { attempt; not_before } when !slots > 0 && now () >= not_before
          ->
            decr slots;
            start shard attempt
        | _ -> ())
      states;
    Array.iteri
      (fun shard st -> match st with Running r -> poll shard r | _ -> ())
      states;
    if unfinished () then Unix.sleepf cfg.poll_interval_s
  done;
  let statuses =
    Array.to_list
      (Array.mapi
         (fun shard st ->
           match st with
           | Done -> (shard, Complete)
           | Dead { attempts; last } ->
               (shard, Exhausted { attempts; last })
           | Pending _ | Running _ -> assert false)
         states)
  in
  {
    statuses;
    retries = !retries;
    respawns = !respawns;
    heartbeat_misses = !hb_misses;
    degraded = !degraded;
  }
