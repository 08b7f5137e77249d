(** Tracing spans with per-domain lock-free buffers.

    [with_ "runner.protect" ~attrs f] times [f] on the monotonic trace
    clock and records a completed span carrying the current domain id,
    its nesting depth and its parent span's name.  Each domain appends
    to its own buffer (reached through [Domain.DLS] — no locks on the
    record path, which is what lets {!Sttc_util.Pool} workers trace
    freely); buffers are registered once per domain under a mutex and
    merged when {!events} collects them, i.e. after the parallel
    section has joined.

    While {!Control.enabled} is false, [with_ name f] is [f ()] plus
    one atomic load — tracing that is compiled in but switched off
    cannot perturb benchmark results.

    Buffers are bounded (200 000 events per domain); past the cap new
    spans are counted in {!dropped} instead of recorded, so a runaway
    instrumentation site degrades the trace, never the run. *)

type event =
  | Complete of {
      name : string;
      cat : string;
      ts_us : float;  (** start, microseconds on the trace clock *)
      dur_us : float;
      tid : int;  (** recording domain's id *)
      depth : int;  (** 0 = top-level span of its domain *)
      parent : string option;  (** enclosing span's name, if any *)
      attrs : (string * string) list;
    }
  | Instant of {
      name : string;
      cat : string;
      ts_us : float;
      tid : int;
      attrs : (string * string) list;
    }

val with_ :
  ?cat:string -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span is recorded when the thunk
    returns {e or raises} (the exception propagates); the default
    category is ["sttc"]. *)

val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit
(** Record a point event (a checkpoint write, a clause-DB reduction). *)

val events : unit -> event list
(** Every recorded event from every domain, sorted by start time.
    Collect at a quiesce point (after pools have joined). *)

val dropped : unit -> int
(** Events discarded because a domain buffer hit its cap. *)

val reset : unit -> unit
(** Clear all buffers and the drop count. *)
