(** Shard assignment, the on-disk campaign layout, and shard-level IO.

    A shard is the unit of supervision: run [i] of the manifest's
    canonical run list belongs to shard [i mod shards], so the
    assignment is a pure function of the manifest — supervisor, worker
    and [--resume] never have to exchange it.

    Everything a shard persists lives under [DIR/shards/] and is keyed
    by the shard index:

    - [shard-K.ckpt] — {!Sttc_util.Ckpt} container with the rows
      finished so far, rewritten atomically after every run;
    - [shard-K.done] — same container format, written once when the
      shard's full row list is complete (its presence {e is} the
      completion marker);
    - [shard-K.hb] — heartbeat counter, content ["ATTEMPT.BEATS"], bumped
      around every run (content change, not mtime, is the liveness
      signal);
    - [shard-K.metrics.json] — the worker's {!Sttc_obs.Metrics}
      snapshot, merged into the campaign-wide snapshot at aggregation;
    - [shard-K.attempt-A.log] — combined stdout/stderr of attempt [A]. *)

(** {1 Rows}

    The marshalled result of one run.  Only plain strings / ints /
    floats — no functions, no abstract library types — so a row written
    by one build loads in another and survives in the aggregated JSON
    report unchanged. *)

type metrics = {
  gates : int;  (** original gate count *)
  luts : int;  (** inserted STT LUTs *)
  config_bits : int;
  perf_pct : float;
  power_pct : float;
  area_pct : float;
  n_indep : string;  (** {!Sttc_util.Lognum.to_string} renderings *)
  n_dep : string;
  n_bf : string;
}

type outcome =
  | Done of metrics
  | Failed of string  (** captured crash / per-run timeout reason *)

type row = {
  index : int;  (** position in {!Manifest.runs} *)
  circuit : string;
  config : string;  (** config label *)
  algorithm : string;
  seed : int;
  outcome : outcome;
}

val of_result :
  Manifest.run -> (Sttc_core.Flow.result, string) result -> row
(** Flatten a {!Sttc_experiments.Runner.run_unit} outcome into a row. *)

(** {1 Assignment} *)

val assign : Manifest.t -> shard:int -> Manifest.run list
(** The runs of one shard, in canonical order.  Raises
    [Invalid_argument] when [shard] is out of range. *)

(** {1 Layout} *)

val manifest_path : string -> string
val report_json_path : string -> string
val report_text_path : string -> string
val campaign_metrics_path : string -> string
val checkpoint_path : dir:string -> int -> string
val result_path : dir:string -> int -> string
val heartbeat_path : dir:string -> int -> string
val metrics_path : dir:string -> int -> string
val log_path : dir:string -> shard:int -> attempt:int -> string

val prepare_dir : string -> unit
(** Create [DIR] and [DIR/shards/] (idempotent). *)

(** {1 Shard IO} *)

val save_checkpoint : dir:string -> shard:int -> row list -> unit

val load_checkpoint : dir:string -> shard:int -> row list
(** [[]] when missing; a rejected container (foreign magic, truncated
    or corrupt payload) also yields [[]] and bumps the
    [campaign.checkpoint_rejected] counter — the worker then recomputes
    from scratch, which is always safe. *)

val save_result : dir:string -> shard:int -> row list -> unit

val load_result :
  dir:string -> shard:int -> (row list, Sttc_util.Ckpt.error) result
(** The completion marker.  The supervisor treats [Error (`Rejected _)]
    on a worker that exited 0 as a failed attempt ([Bad_result]). *)
