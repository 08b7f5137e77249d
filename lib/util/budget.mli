(** Wall-clock budgets: one monotonic deadline per domain, honoured the
    same way on every domain and nestable.

    A budget is installed for the dynamic extent of {!run} and polled
    with {!check} at the loop heads of long-running code (the SAT
    solver's conflict loop, the attacks' pattern and candidate loops,
    selection's repair loop, lint's sweep rounds, the pool's task
    loop).  Polling is cooperative: code between two polls is never
    interrupted.  {!Pool.map} carries the submitting domain's deadline
    into every task, so a budget covers work fanned out across domains.

    Deterministic work limits (SAT conflict caps, lint [--budget]) are a
    separate mechanism: they decide results, a wall-clock budget only
    decides whether a result arrives in time. *)

val run : seconds:float -> (unit -> 'a) -> ('a, [ `Timeout ]) result
(** [run ~seconds f] runs [f ()] under the deadline
    [min parent (now + seconds)], where [parent] is the enclosing
    budget's deadline (none outside any budget).  Returns [Error
    `Timeout] when [f] reaches a {!check} after the deadline or returns
    after it; refuses to run [f] at all when [seconds <= 0] or the
    enclosing deadline has already passed.  Other exceptions raised by
    [f] propagate; the enclosing deadline is restored either way. *)

val check : unit -> unit
(** The poll: abandons the innermost {!run} once its deadline has
    passed.  Outside any budget it costs one domain-local read and no
    clock read.  Code between a [check] and its [run] must not swallow
    exceptions indiscriminately. *)
