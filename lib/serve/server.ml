module Metrics = Sttc_obs.Metrics

module Config = struct
  type t = {
    socket : string;
    jobs : int;
    queue_capacity : int;
    cache_capacity : int;
    default_timeout_s : float option;
    on_event : string -> unit;
  }

  let default =
    {
      socket = "sttc.sock";
      jobs = 2;
      queue_capacity = 64;
      cache_capacity = 32;
      default_timeout_s = None;
      on_event = ignore;
    }

  let with_socket socket t = { t with socket }
  let with_jobs jobs t = { t with jobs }
  let with_queue_capacity queue_capacity t = { t with queue_capacity }
  let with_cache_capacity cache_capacity t = { t with cache_capacity }
  let with_default_timeout_s s t = { t with default_timeout_s = Some s }
  let with_on_event on_event t = { t with on_event }
end

(* every counter the daemon can bump, seeded up front so the series
   exist (and obs-check --require passes) even for an uneventful run *)
let counters =
  [
    "serve.requests";
    "serve.errors";
    "serve.overloaded";
    "serve.cache_hits";
    "serve.cache_misses";
    "serve.cache_evictions";
    "serve.internal_errors";
  ]

type conn = {
  fd : Unix.file_descr;
  rbuf : Buffer.t;  (** partial frame accumulator (main thread only) *)
  wlock : Mutex.t;  (** serializes response writes from worker domains *)
  mutable alive : bool;
}

type job = { conn : conn; request : Request.t }

type t = {
  cfg : Config.t;
  session : Session.t;
  queue : job Queue.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  mutable stopping : bool;
  wake_w : Unix.file_descr;  (** self-pipe: workers wake the select loop *)
}

let write_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let rec go off =
    if off < n then
      let w = Unix.write fd bytes off (n - off) in
      go (off + w)
  in
  go 0

(* a dead peer (EPIPE/ECONNRESET) just marks the connection; the select
   loop reaps it on its next read *)
let send conn response =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      if conn.alive then
        try write_all conn.fd (Response.to_string response ^ "\n")
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
        -> conn.alive <- false)

let signal_stop t =
  Mutex.lock t.qlock;
  if not t.stopping then begin
    t.stopping <- true;
    Condition.broadcast t.qcond;
    (try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
     with Unix.Unix_error _ -> ())
  end;
  Mutex.unlock t.qlock

(* ---------- worker domains ---------- *)

(* A worker domain lives as long as the daemon, so the SAT attacks'
   per-domain solver arena is recycled across its requests — the
   warm-solver half of the daemon's persistence story. *)
let worker t =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then begin
      (* stopping and drained *)
      Mutex.unlock t.qlock;
      ()
    end
    else begin
      let job = Queue.pop t.queue in
      Metrics.set_gauge "serve.queue_depth" (float_of_int (Queue.length t.queue));
      Mutex.unlock t.qlock;
      let request =
        match job.request.Request.timeout_s with
        | Some _ -> job.request
        | None ->
            { job.request with Request.timeout_s = t.cfg.Config.default_timeout_s }
      in
      (* last resort, outside the request's budget: a request that
         escapes the handler still gets a reply, and the worker lives
         on to serve the next one *)
      let response =
        try Handler.handle t.session request
        with _ ->
          Metrics.incr "serve.internal_errors";
          Response.Error { id = request.Request.id; message = "internal error" }
      in
      send job.conn response;
      (match job.request.Request.payload with
      | Request.Shutdown -> signal_stop t
      | _ -> ());
      loop ()
    end
  in
  loop ()

(* ---------- frame intake (main thread) ---------- *)

let enqueue t conn line =
  match Request.of_string line with
  | Error e ->
      send conn (Response.Error { id = None; message = "bad request: " ^ e })
  | Ok request ->
      Mutex.lock t.qlock;
      if t.stopping then begin
        Mutex.unlock t.qlock;
        send conn
          (Response.Error
             { id = request.Request.id; message = "server is shutting down" })
      end
      else if Queue.length t.queue >= t.cfg.Config.queue_capacity then begin
        Mutex.unlock t.qlock;
        Metrics.incr "serve.overloaded";
        send conn (Response.Overloaded { id = request.Request.id })
      end
      else begin
        Queue.push { conn; request } t.queue;
        Metrics.set_gauge "serve.queue_depth"
          (float_of_int (Queue.length t.queue));
        Condition.signal t.qcond;
        Mutex.unlock t.qlock
      end

(* split the accumulated bytes into complete newline-terminated frames *)
let drain_lines conn =
  let text = Buffer.contents conn.rbuf in
  let lines = ref [] in
  let start = ref 0 in
  String.iteri
    (fun i c ->
      if c = '\n' then begin
        lines := String.sub text !start (i - !start) :: !lines;
        start := i + 1
      end)
    text;
  Buffer.clear conn.rbuf;
  Buffer.add_substring conn.rbuf text !start (String.length text - !start);
  List.rev !lines

let run cfg =
  List.iter (fun c -> Metrics.incr ~by:0 c) counters;
  Metrics.set_gauge "serve.queue_depth" 0.;
  (* a stale socket file from a crashed daemon would make bind fail *)
  (try Unix.unlink cfg.Config.socket with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.Config.socket);
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      cfg;
      session = Session.create ~capacity:cfg.Config.cache_capacity ();
      queue = Queue.create ();
      qlock = Mutex.create ();
      qcond = Condition.create ();
      stopping = false;
      wake_w;
    }
  in
  (* writes to connections that died mid-response must not kill the
     daemon with SIGPIPE; [send] handles the EPIPE instead *)
  let previous_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  let workers =
    List.init (max 1 cfg.Config.jobs) (fun _ -> Domain.spawn (fun () -> worker t))
  in
  cfg.Config.on_event
    (Printf.sprintf "listening on %s (%d workers)" cfg.Config.socket
       (List.length workers));
  let conns = Hashtbl.create 16 in
  let stopping () =
    Mutex.lock t.qlock;
    let s = t.stopping in
    Mutex.unlock t.qlock;
    s
  in
  let close_conn conn =
    Mutex.lock conn.wlock;
    conn.alive <- false;
    Mutex.unlock conn.wlock;
    Hashtbl.remove conns conn.fd;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  in
  let chunk = Bytes.create 65536 in
  while not (stopping ()) do
    let fds =
      listen_fd :: wake_r :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    match Unix.select fds [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = wake_r then
              ignore (Unix.read wake_r chunk 0 1)
            else if fd = listen_fd then begin
              let client_fd, _ = Unix.accept listen_fd in
              Hashtbl.replace conns client_fd
                {
                  fd = client_fd;
                  rbuf = Buffer.create 4096;
                  wlock = Mutex.create ();
                  alive = true;
                }
            end
            else
              match Hashtbl.find_opt conns fd with
              | None -> ()
              | Some conn -> (
                  match Unix.read fd chunk 0 (Bytes.length chunk) with
                  | 0 -> close_conn conn
                  | exception
                      Unix.Unix_error
                        ((Unix.ECONNRESET | Unix.EBADF), _, _) ->
                      close_conn conn
                  | n ->
                      Buffer.add_subbytes conn.rbuf chunk 0 n;
                      List.iter (enqueue t conn) (drain_lines conn)))
          readable
  done;
  (* teardown: stop accepting, drain the queue through the workers,
     then close everything and remove the socket *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  List.iter Domain.join workers;
  Hashtbl.iter (fun _ conn -> try Unix.close conn.fd with Unix.Unix_error _ -> ())
    conns;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  (try Unix.close wake_w with Unix.Unix_error _ -> ());
  (try Unix.unlink cfg.Config.socket with Unix.Unix_error _ -> ());
  (match previous_sigpipe with
  | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
  | None -> ());
  cfg.Config.on_event "stopped"
