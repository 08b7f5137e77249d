(** Named metrics with atomic-overhead disabled mode and per-domain
    sharded recording.

    Three series kinds:

    - {b counters} — monotonically growing ints ([sat.conflicts],
      [pool.tasks], ...);
    - {b gauges} — a float level ([sat.kept_clauses],
      [pool.queue_depth]); merged across domains, and rendered, as the
      {e maximum}, the useful aggregate for "how deep did it get";
    - {b histograms} — log-scale (log10, four buckets per decade over
      [1e-6, 1e3]) distribution of positive floats, the right shape for
      wall-clock durations that span six orders of magnitude — the same
      reasoning that puts the paper's security counts in
      {!Sttc_util.Lognum}'s log10 domain.

    Every update lands in a domain-local shard (a plain hashtable
    reached through [Domain.DLS]), so pool workers record without
    taking any lock; {!snapshot} merges all shards.  Updates are
    no-ops while {!Control.enabled} is false — one atomic load each.

    Snapshots are meant for quiesce points (after a pool has joined,
    at the end of a run): merging while worker domains are still
    writing can miss in-flight updates, though it never corrupts the
    shards. *)

type summary = {
  count : int;
  sum : float;
  min : float;  (** 0. when [count = 0] *)
  max : float;  (** 0. when [count = 0] *)
  buckets : (float * int) list;
      (** (upper bound, samples at or below it and above the previous
          bound); bounds are the fixed log-scale grid *)
  overflow : int;  (** samples above the last bound *)
}

type point = Counter of int | Gauge of float | Histogram of summary

type snapshot = (string * point) list
(** Sorted by series name — two runs recording the same values produce
    identical snapshots regardless of domain scheduling. *)

val incr : ?by:int -> string -> unit
(** Bump a counter ([by] defaults to 1). *)

val set_gauge : string -> float -> unit
(** Overwrite this domain's level of a gauge. *)

val peak_gauge : string -> float -> unit
(** Raise this domain's level to at least the given value — records a
    high-water mark instead of the last write. *)

val observe : string -> float -> unit
(** Add a sample to a histogram.  Non-positive samples land in the
    lowest bucket. *)

val snapshot : unit -> snapshot
(** Merge every domain's shard: counters sum, gauges max, histograms
    add pointwise.  A series recorded with different kinds on
    different domains raises [Invalid_argument] — that is an
    instrumentation bug, not data. *)

val merge : snapshot -> snapshot -> snapshot
(** Merge two snapshots with the same semantics as the cross-domain
    merge: counters sum, gauges max, histograms add.  Histogram buckets
    are united by their bounds rather than assumed to share a grid, so
    snapshots that travelled through JSON (which drops empty buckets)
    merge correctly.  This is the cross-{e process} aggregation
    primitive: a campaign supervisor folds every worker's exported
    snapshot into one with it.  Raises [Invalid_argument] when the same
    series carries different kinds in the two snapshots. *)

val of_json : Json.t -> (snapshot, string) result
(** Parse a {!to_json} rendering back into a snapshot.  Histogram
    bucket bounds are snapped onto the canonical log-scale grid when
    they are within rounding distance of it, so a parsed snapshot
    {!merge}s exactly with a live one despite the [%.12g] float
    round-trip.  Each series' point is one record table per type:
    a key outside it is refused, naming the series. *)

val find : snapshot -> string -> point option
val counter_value : snapshot -> string -> int
(** 0 when absent or not a counter. *)

val to_json : snapshot -> Json.t
(** The ["metrics"] object of the metrics file: one field per series,
    [{"type": ..., ...}]. *)

val reset : unit -> unit
(** Drop all recorded values (every shard of every domain seen so
    far). *)
