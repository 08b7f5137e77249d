(** Aggregation: shard artifacts -> one validated campaign report.

    The collection pass prefers a shard's result container and falls
    back to its checkpoint — a degraded shard therefore still
    contributes every run it finished before its retry budget ran out,
    and only the runs it never reached become footnoted [missing] rows.

    The report is {e deterministic by construction}: rows carry no
    wall-clock, no hostnames, no build info, and are sorted by run
    index, so a clean single-pass campaign, a SIGKILLed-then-resumed
    one, and a rerun of a finished directory all render byte-identical
    [report.json] / [report.txt] — which is exactly what the CI gate
    diffs.  (Timing lives in the separate metrics snapshot, which is
    {e not} diffed.)

    Campaign-wide metrics are the {!Sttc_obs.Metrics.merge} of every
    shard's snapshot file plus the supervisor's own registry. *)

type source =
  | Result  (** the shard's [.done] container loaded *)
  | Checkpoint  (** degraded shard: partial rows from the checkpoint *)
  | Nothing  (** degraded before its first checkpoint *)

type t = {
  manifest : Manifest.t;
  rows : Shard.row list;  (** completed runs, ascending by index *)
  missing : Manifest.run list;  (** runs with no row, ascending *)
  sources : (int * source) list;  (** by shard *)
  degraded : (int * string) list;
      (** shard -> cause, for exhausted shards (from the supervisor) *)
}

val collect :
  ?degraded:(int * string) list -> dir:string -> Manifest.t -> t

val complete : t -> bool
(** No missing runs and no degraded shards. *)

val render_text : t -> string

val validate : Sttc_obs.Json.t -> (int, string) result
(** Structural check of a [report.json] document: required fields,
    status vocabulary, and [total = completed + missing] consistency.
    [Ok n] is the row count. *)

val write : dir:string -> t -> (unit, string) result
(** Atomically write [report.json] and [report.txt], then re-read and
    {!validate} the JSON from disk — the report the campaign claims to
    have produced is the one that parses back. *)

val write_metrics : dir:string -> Manifest.t -> unit
(** The shards' metrics snapshots, merged and exported to
    [campaign.metrics.json] (atomic). *)
