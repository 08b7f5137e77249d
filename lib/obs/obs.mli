(** Façade over the observability subsystem.

    Instrumentation sites use the sub-modules directly
    ([Sttc_obs.Span.with_ "sat.dip_iteration" f],
    [Sttc_obs.Metrics.incr "sat.conflicts"]); drivers use this module
    to switch recording on around a run and export the results:

    {[
      Sttc_obs.Obs.with_run ~trace:"run.trace.json"
        ~metrics:"run.metrics.json" (fun () -> Runner.table1 cfg)
    ]}

    With neither [?trace] nor [?metrics] requested, [with_run f] is
    exactly [f ()] — recording stays off and every instrumentation
    site costs one atomic load, which is what keeps benchmark output
    byte-identical to an uninstrumented build. *)

module Json = Json
module Build_info = Build_info
module Span = Span
module Metrics = Metrics
module Export = Export

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded spans and metrics and forget the trace clock
    origin. *)

val attach_pool : unit -> unit
(** Install the {!Sttc_util.Pool} probe: submissions and chunk
    executions become [pool.*] metrics and [pool.chunk] spans.  The
    pool itself sits below this library in the dependency order, which
    is why the wiring runs in this direction. *)

val detach_pool : unit -> unit

val write_trace : string -> unit
(** Export all recorded spans as Chrome [trace_event] JSON.  Call at a
    quiesce point (pools joined). *)

val with_run : ?trace:string -> ?metrics:string -> (unit -> 'a) -> 'a
(** Enable recording (and the pool probe) around the thunk when at
    least one output file is requested, then export, reset, and detach
    — also on exception, so a crashed run still leaves its trace
    behind.  With neither file requested: just the thunk. *)

val validate_trace_file : string -> (int, string) result
(** Parse and structurally validate a trace file ({!Export.validate_trace});
    [Ok n] is the span count. *)

val validate_metrics_file :
  ?min_series:int -> ?require:string list -> string -> (int, string) result
(** Same for a metrics file; [Ok n] is the series count.  [require]
    names series that must be present (the campaign CI gate asserts its
    counters this way). *)
