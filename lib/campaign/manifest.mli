(** Declarative campaign manifests.

    A campaign is the cross product {e circuits x configs x algorithms
    x seeds}: the sweep shape the paper's Table I / Fig. 3 claims need
    at scale (thousands of protect runs across benchmarks, selection
    algorithms and seeds).  The manifest is a JSON file — parsed with
    the {!Sttc_obs.Json} codec, no external dependency — that pins the
    whole sweep declaratively, so the supervisor, every worker process
    and a later [--resume] all derive {e exactly} the same run list and
    shard assignment from the same bytes.

    Schema (fields marked [?] are optional):

    {v
    {
      "name": "quick-sweep",
      "circuits": ["s27", "s641"],
      "algorithms": ["dependent",
                     {"name": "independent", "count": 5},
                     {"name": "parametric", "clock_factor": 1.08}],
      "configs":  [{"label": "plain"},                            ?
                   {"label": "hardened", "harden": true,
                    "fraction": 0.05}],
      "seeds": [1, 2, 3],            // or {"base": 1, "count": 100}
      "shards": 4,                   ?  // default 1
      "timeout_s": 60.0,             ?  // per-run wall budget
      "retries": 2,                  ?  // per-shard retry budget
      "heartbeat_timeout_s": 60.0,   ?  // worker liveness watchdog
      "attempt_timeout_s": 1800.0,   ?  // per-attempt wall watchdog
      "backend": "tvd"               ?  // protection backend; default "stt"
    }
    v}

    [algorithms] defaults to the paper's three; [configs] to one plain
    entry. *)

type config = {
  label : string;  (** row tag; unique within the manifest *)
  fraction : float option;  (** selection-fraction override *)
  harden : bool;  (** Section IV-A.3 hardening (2 dummy inputs + absorb) *)
}

val default_config : config
(** [{ label = "default"; fraction = None; harden = false }] *)

val config_to_json : config -> Sttc_obs.Json.t
val config_of_json : ?default_label:string -> Sttc_obs.Json.t -> (config, string) result
(** The per-run protect-config codec, shared with serve requests:
    [{"label"?, "fraction"?, "harden"?}].  A missing [label] takes
    [default_label] (default ["default"]; the manifest parser passes the
    positional ["config-<i>"]). *)

type t = {
  name : string;
  circuits : string list;
  algorithms : Sttc_core.Flow.algorithm list;
  configs : config list;
  seeds : int list;
  shards : int;
  timeout_s : float option;
  retries : int;
      (** how many times a failed shard attempt is retried before the
          shard degrades to a footnoted partial result *)
  heartbeat_timeout_s : float;
      (** a worker whose heartbeat file stops changing for this long is
          presumed hung and killed *)
  attempt_timeout_s : float option;
      (** hard wall-clock watchdog per worker attempt *)
  backend : string;
      (** protection backend for every run
          ({!Sttc_backend.Backend.names}); default ["stt"], omitted from
          the JSON rendering at that default so historical manifests are
          byte-stable *)
}

(** {1 The run list}

    Runs are enumerated in one canonical order — circuits outermost,
    then configs, then algorithms, then seeds — and identified by their
    position in it.  Everything downstream (shard assignment,
    checkpoints, the aggregated report) keys on that index. *)

type run = {
  index : int;
  circuit : string;
  config : config;
  algorithm : Sttc_core.Flow.algorithm;
  seed : int;
}

val runs : t -> run list
val run_count : t -> int

(** {1 File IO} *)

val save : string -> t -> unit
(** Atomic write (temp + rename) of the canonical JSON rendering. *)

val load : string -> (t, string) result
(** Parse, then check structural sanity: non-empty dimensions, known
    circuit names, unique config labels, [shards >= 1], [retries >= 0],
    positive watchdog budgets, known backend name. *)
