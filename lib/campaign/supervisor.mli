(** Process supervision: spawn, watch, retry, degrade.

    The supervisor owns no science — it runs shards.  Each shard gets a
    worker process ({!Unix.create_process} of [sttc worker ...] by
    default); the supervisor polls its exit status, watches the shard
    heartbeat file for content changes, and enforces an optional
    per-attempt wall-clock deadline.  {e Every} failure mode is the same
    retryable event:

    - nonzero exit, death by signal (including [kill -9]);
    - heartbeat silent longer than the manifest's
      [heartbeat_timeout_s] — the worker is SIGKILLed first;
    - attempt running past [attempt_timeout_s] — likewise;
    - exit 0 but an unloadable result container ([Bad_result]);
    - an exception from an {!In_process} worker ([Crashed]).

    Retry is per shard, with capped exponential backoff
    ([base * 2^(attempt-1)], capped — deterministic, no jitter, so test
    schedules are reproducible).  A shard that exhausts its budget
    degrades: the campaign continues, and aggregation later turns the
    shard's checkpoint into footnoted partial rows rather than losing
    the sweep. *)

(** Why an attempt ended. *)
type cause =
  | Exited of int  (** nonzero exit code *)
  | Signaled of int  (** killed by signal (OCaml signal number) *)
  | Stalled of float  (** heartbeat silent for this many seconds *)
  | Hung of float  (** attempt exceeded its wall-clock deadline *)
  | Bad_result of string  (** exit 0 but the result container rejected *)
  | Crashed of string  (** in-process worker raised *)

val cause_to_string : cause -> string

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

val string_of_event : event -> string

type shard_status =
  | Complete
  | Exhausted of { attempts : int; last : cause }

type outcome = {
  statuses : (int * shard_status) list;  (** by shard, ascending *)
  retries : int;
  respawns : int;  (** spawns beyond each shard's first attempt *)
  heartbeat_misses : int;
  degraded : int;
}

(** How to run one shard attempt. *)
type worker =
  | Spawn of (dir:string -> shard:int -> attempt:int -> string array)
      (** argv for a child process; stdout/stderr go to the attempt log *)
  | In_process
      (** call {!Worker.run} directly (no hang detection, no kill
          injection) — for tests and the bench harness *)

val default_spawn : worker
(** [Sys.executable_name worker --dir DIR --shard K --attempt A] — the
    re-exec convention the [sttc] CLI satisfies. *)

type config = {
  dir : string;
  manifest : Manifest.t;
  jobs : int;  (** concurrently running workers *)
  retries : int option;  (** overrides the manifest's budget *)
  backoff_base_s : float;
  backoff_cap_s : float;
  poll_interval_s : float;
  worker : worker;
  on_event : event -> unit;
}

val config :
  ?jobs:int ->
  ?retries:int ->
  ?backoff_base_s:float ->
  ?backoff_cap_s:float ->
  ?poll_interval_s:float ->
  ?worker:worker ->
  ?on_event:(event -> unit) ->
  dir:string ->
  manifest:Manifest.t ->
  unit ->
  config
(** Defaults: [jobs = 2], manifest retries, [backoff_base_s = 0.25],
    [backoff_cap_s = 10.], [poll_interval_s = 0.05],
    [worker = default_spawn], events dropped.  The delay before the
    first retry is [backoff_base_s]; each further retry doubles it, up
    to [backoff_cap_s]. *)

val run : config -> outcome
(** Drive every shard to [Complete] or [Exhausted].  Shards whose
    result container already loads are skipped up front — this is what
    makes [--resume] (and re-running a finished campaign) cheap and
    idempotent.

    Counters ([campaign.shard_retries], [campaign.worker_respawns],
    [campaign.heartbeat_misses], [campaign.shards_degraded],
    [campaign.shards_completed]) are recorded in the
    {!Sttc_obs.Metrics} registry — pre-seeded to zero so the series
    exist even in an uneventful run. *)
