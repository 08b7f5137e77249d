(** The [sttc serve] daemon: a Unix-domain-socket server speaking
    newline-delimited JSON {!Request}/{!Response} frames.

    Architecture — one select loop, N worker domains, one bounded queue:

    - the {e main thread} owns the listening socket and every
      connection's read side: it accepts clients, accumulates bytes
      into frames, parses each frame and enqueues the typed request;
    - a bounded queue ([queue_capacity]) connects intake to execution;
      a full queue answers with a typed [Overloaded] response
      immediately — the daemon never buffers unboundedly and never
      blocks the intake loop on a slow request;
    - each {e worker domain} pops requests, executes them through
      {!Handler.handle} (the SAT attacks recycle the domain's solver
      arena across requests), and writes the response to the client
      under a per-connection write lock (responses to pipelined
      requests may arrive out of order — correlate with the echoed
      [id]); an exception that escapes the handler is answered with
      an [internal error] reply and counted, and the worker goes on;
    - the netlist cache ({!Session}) is shared by all workers.

    Shutdown: a [shutdown] request is answered first, then the daemon
    stops intake, drains queued requests, joins every worker and
    removes the socket file — no orphans, verified by the CI gate.

    Metrics: [serve.requests], [serve.errors], [serve.overloaded],
    [serve.cache_hits]/[misses]/[evictions], [serve.internal_errors]
    (all pre-seeded at start),
    the [serve.queue_depth] gauge and the [serve.request_seconds]
    histogram.  [stats] responses snapshot the live registry, so a
    snapshot taken mid-request may trail by the in-flight updates. *)

module Config : sig
  type t = {
    socket : string;  (** socket path (beware the ~100-byte OS limit) *)
    jobs : int;  (** worker domains (default 2; min 1) *)
    queue_capacity : int;
        (** queued-request bound; beyond it clients get [Overloaded] *)
    cache_capacity : int;
        (** netlist cache entries; [0] disables caching *)
    default_timeout_s : float option;
        (** budget applied to requests that carry none *)
    on_event : string -> unit;  (** lifecycle log consumer *)
  }

  val default : t
  (** socket ["sttc.sock"], 2 jobs, queue 64, cache 32, no default
      budget, events dropped. *)

  val with_socket : string -> t -> t
  val with_jobs : int -> t -> t
  val with_queue_capacity : int -> t -> t
  val with_cache_capacity : int -> t -> t
  val with_default_timeout_s : float -> t -> t
  val with_on_event : (string -> unit) -> t -> t
end

val run : Config.t -> unit
(** Serve until a [shutdown] request arrives; returns after full
    teardown.  Binds the socket (replacing a stale file), ignores
    SIGPIPE for the duration, and restores the previous handler on
    exit.  Call from the main domain (or a dedicated domain — tests and
    the bench harness spawn it on one). *)
