(** Fixed-size domain work pool for embarrassingly parallel experiment
    fan-outs.

    The paper's evaluation is a bag of independent tasks (benchmark x
    algorithm protect runs, attack-harness entries, per-die provisioning
    trials), each deterministic given a pre-derived seed.  The pool runs
    such bags across OCaml 5 domains while keeping submission-order
    results, so serial and parallel runs produce identical output.

    Determinism contract: derive every task's random stream ({!Rng.split}
    or an explicit per-task seed) {e before} submission.  Tasks must not
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
(** Raised by {!map_exn} / {!map_reduce} for the failed task with the
    smallest submission index. *)

type t

val create : ?chunk:int -> jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs] worker domains ([jobs >= 1]).
    [chunk] fixes the number of consecutive tasks handed to a worker at
    a time (default: computed from the submission size, about four
    chunks per worker). *)

val jobs : t -> int
(** Worker count the pool was created with. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what [-j 0] resolves to. *)

val worthwhile :
  ?min_work:float -> jobs:int -> tasks:int -> work:float -> unit -> bool
(** [worthwhile ~jobs ~tasks ~work ()] — should this bag be fanned out
    at all?  Spawning and joining worker domains costs real time, so a
    pool over a small bag loses to a plain serial loop.  Returns [true]
    only when [jobs > 1], there is more than one task, and the caller's
    estimate of total work ([work], arbitrary units) reaches [min_work]
    (default [1.], i.e. the caller pre-scaled the estimate).  Callers
    that can't estimate work should pass [work = infinity] and rely on
    the task count alone. *)

val map : t -> ('a -> 'b) -> 'a list -> ('b, error) result list
(** [map t f items] applies [f] to every item on the worker domains and
    returns the outcomes in submission order.  Exceptions are captured
    per task: one failed task never aborts the bag.

    Tasks inherit the caller's {!Budget} deadline, and each polls it
    before starting.  Exhausting it is not a task failure: once the bag
    has settled, [map] polls the deadline itself, so the exhaustion
    surfaces on the caller as if the work had run there.

    Must not be called from inside a pool task of the same pool (the
    worker would wait on itself); nested fan-outs run serially instead. *)

val map_exn : t -> ('a -> 'b) -> 'a list -> 'b list
(** Like {!map}, but re-raises the first (by submission index) captured
    failure as {!Task_error} after the whole bag has settled. *)

val map_reduce :
  t ->
  map:('a -> 'b) ->
  reduce:('acc -> 'b -> 'acc) ->
  init:'acc ->
  'a list ->
  'acc
(** [map_reduce t ~map ~reduce ~init items] maps on the workers, then
    folds the results in submission order on the calling domain — the
    reduction is order-stable, so a non-commutative [reduce] still gives
    the serial answer.  Raises {!Task_error} like {!map_exn}. *)

val shutdown : t -> unit
(** Graceful shutdown: already-queued work is drained, workers then exit
    and are joined.  Idempotent.  Subsequent {!map} calls raise
    [Invalid_argument]. *)

val with_pool : ?chunk:int -> jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down on
    the way out, exceptions included. *)

(** {1 Instrumentation probe}

    The pool sits below the observability layer in the dependency
    order, so rather than record anything itself it exposes one hook.
    [Sttc_obs.Obs.attach_pool] installs a probe that turns these
    callbacks into spans and metrics; without one, the overhead is a
    single atomic load per {!map} call. *)

type probe = {
  on_submit : tasks:int -> chunks:int -> unit;
      (** called once per {!map} submission, on the calling domain,
          before any work is enqueued *)
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
