(** Serial-or-pooled execution of embarrassingly parallel experiment
    fan-outs: the one place that decides whether a bag of tasks runs on
    the calling domain or across OCaml 5 domains.

    The paper's evaluation is a bag of independent tasks (benchmark x
    algorithm protect runs, attack-harness entries, per-die provisioning
    trials), each deterministic given a pre-derived seed.  {!map} keeps
    submission-order results, so serial and parallel runs produce
    identical output.

    Determinism contract: derive every task's random stream (an explicit
    per-task seed) {e before} submission.  Tasks must not
    share mutable state; netlists shared read-only across tasks should
    have their lazy caches forced first ({!Sttc_netlist.Netlist.warm}).

    Budgets: every task runs under the submitting domain's {!Budget}, so
    a deadline set around a fan-out covers the work on every domain. *)

type error = {
  index : int;  (** submission position of the failed task *)
  exn : string;  (** [Printexc.to_string] of the captured exception *)
  backtrace : string;  (** captured backtrace text (may be empty) *)
}

exception Task_error of error
(** Raised by a pooled {!map} for the failed task with the smallest
    submission index. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [-j 0] resolves to. *)

val map :
  ?chunk:int -> ?work:float -> jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item and returns the
    results in submission order.

    Spawning and joining domains costs real time, so a pool over a small
    bag loses to a plain loop: the bag runs as [List.map f items] on the
    calling domain unless [jobs > 1], there is more than one item, and
    the caller's estimate of the bag's total work reaches [1.] ([work],
    pre-scaled by the caller so that [1.] pays for the domains; default
    [infinity], i.e. the item count alone decides).  A serial bag raises
    [f]'s own exception on the calling domain.

    Otherwise [map] spawns [jobs] worker domains (at most one per
    chunk), runs the bag on them and joins them before returning.
    [chunk] fixes the number of consecutive items handed to a worker at
    a time (default: about four chunks per worker).  Exceptions are captured
    per task: one failed task never aborts the bag, and once the whole
    bag has settled the first (by submission index) captured failure is
    re-raised as {!Task_error}.  Tasks inherit the caller's {!Budget}
    deadline, and each polls it before starting.  Exhausting it is not
    a task failure: once the bag has settled, [map] polls the deadline
    itself, so the exhaustion surfaces on the caller as if the work had
    run there.

    Raises [Invalid_argument] when [chunk < 1]. *)

(** {1 Instrumentation probe}

    The pool sits below the observability layer in the dependency
    order, so rather than record anything itself it exposes one hook.
    [Sttc_obs.Obs.attach_pool] installs a probe that turns these
    callbacks into spans and metrics; without one, the overhead is a
    single atomic load per pooled {!map}. *)

type probe = {
  on_submit : tasks:int -> chunks:int -> unit;
      (** called once per pooled {!map}, on the calling domain, before
          any worker starts *)
  around_chunk : size:int -> (unit -> unit) -> unit;
      (** wraps each chunk's execution on its worker domain; must call
          the thunk exactly once ([size] = tasks in the chunk) *)
}

val set_probe : probe option -> unit
(** Install or remove the global probe.  Affects subsequent {!map}
    calls; intended for process startup, not mid-run toggling. *)

(** {1 Clock} *)

val now_s : unit -> float
(** The monotonic clock {!Budget} deadlines are kept on, in seconds from
    an arbitrary origin. *)
