(** Experiment driver shared by the benchmark harness and the CLI.

    One call protects every ISCAS'89 structural twin with the paper's
    three algorithms under a fixed master seed; the resulting rows feed
    the Table I / Table II / Fig. 3 renderers.  The attack campaign runs
    the empirical attacks on a small circuit where they terminate.

    The driver hands its bags and [Config.jobs] to {!Sttc_util.Pool.map},
    which fans out the ones worth it; per-task seeds are derived before
    submission, so rows are bit-identical at any job count. *)

val master_seed : int
(** 20160605 — fixed so published output is reproducible. *)

(** {1 Configuration}

    The driver's knobs as one value instead of a growing pile of
    optional arguments.  Build one with {!Config.default} and the
    [with_*] setters:
    {[ Config.(default |> with_only quick_benchmarks |> with_jobs 4) ]} *)

module Config : sig
  type t = {
    seed : int;  (** master seed; every row is deterministic in it *)
    only : string list option;
        (** restrict to these benchmarks (unknown names raise up front) *)
    timeout_s : float option;
        (** wall-clock budget per build / per protect stage *)
    isolate : bool;
        (** turn per-benchmark crashes into partial rows instead of
            aborting the whole table *)
    jobs : int;
        (** worker domains; [1] = serial (identical rows either way) *)
    backend : string;
        (** protection backend name ({!Sttc_backend.Backend.names});
            default ["stt"] *)
  }

  val default : t
  (** seed={!master_seed}, every benchmark, no timeout, no isolation,
      jobs=1, backend="stt". *)

  val with_seed : int -> t -> t
  val with_only : string list -> t -> t
  val with_jobs : int -> t -> t
end

val quick_benchmarks : string list
(** The sub-1000-gate twins, in table order: what [--quick] selects. *)

val rows : Config.t -> Sttc_core.Report.benchmark_row list
(** Protect every selected benchmark with the paper's three algorithms.

    One body at every job count: a build task per benchmark, then a
    protect task per benchmark x algorithm (the guarded unit
    {!run_unit} also runs), then the rows are assembled on the calling
    domain in benchmark order.  Each bag goes to {!Sttc_util.Pool.map}
    with [jobs] and a gate-count work estimate, one task per chunk: a
    bag large enough to pay for the domains runs on [jobs] of them,
    any other in order on the calling domain.  Rows are bit-identical
    either way, because each task's result depends only on [seed].

    Crash tolerance (see the {!Config} fields): [timeout_s] budgets each
    build and protect stage with a {!Sttc_util.Budget} (a stage stops at
    its next poll after the deadline, or is reported as timed out when
    it returns past it, on any domain), and [isolate] degrades crashes
    to partial rows.  Either failure lands in [row.failures] as
    ["build: ..."] or ["protect: ..."], rendered as ["-"] cells with a
    footnote.  Without [isolate], a crashing stage raises: the original
    exception on the calling domain, {!Sttc_util.Pool.Task_error} from
    a pool.  Resumable sweeps are the campaign engine's job
    ({!Sttc_campaign}; [examples/paper.json] is this sweep as a
    manifest).

    [backend] selects the protection technology for every protect stage
    (resolved up front with {!Sttc_backend.Backend.find_exn}, so an
    unknown name raises before any work starts). *)

(** {1 Shard-scoped entry points}

    The campaign engine ({!Sttc_campaign}) executes sweeps as bags of
    single [benchmark x algorithm x seed] units inside supervised worker
    processes; these two functions are that unit of work. *)

val build_circuit : string -> Sttc_netlist.Netlist.t
(** Resolve a benchmark name to its netlist: the ISCAS'89 structural
    twins ({!Sttc_netlist.Iscas_profiles}, each at its own name-derived
    seed, so every caller sees the same circuit) first, then the embedded
    genuine benchmarks ({!Sttc_netlist.Iscas_data}: s27, c17).  Raises
    [Invalid_argument] on unknown names. *)

val run_unit :
  ?timeout_s:float ->
  ?fraction:float ->
  ?hardening:Sttc_core.Flow.hardening ->
  ?backend:Sttc_backend.Backend.t ->
  seed:int ->
  benchmark:string ->
  Sttc_core.Flow.algorithm ->
  (Sttc_core.Flow.result, string) result
(** One protect run, isolated: build the benchmark, run the strict flow
    at [seed], and capture any crash or [timeout_s] overrun as [Error]
    with the reason — the caller (a campaign worker) records it as a
    footnoted partial row rather than dying.  Deterministic in [seed]
    when no timeout fires.  [backend] selects the protection technology
    (default STT).  The timeout is a {!Sttc_util.Budget}, so the unit
    may run on any domain. *)

val fig1 : unit -> string
val table1 : Sttc_core.Report.benchmark_row list -> string
val table2 : Sttc_core.Report.benchmark_row list -> string
val fig3 : Sttc_core.Report.benchmark_row list -> string

val attack_campaign : ?seed:int -> unit -> string
(** Protect an 80-gate circuit three ways with STT LUTs and run the SAT
    (15 s budget) / truth-table / hill-climb / brute-force attacks against
    each, one after the other. *)

val sweep : Sttc_netlist.Netlist.t -> counts:int list -> string
(** Security-vs-overhead frontier: independent selection at increasing
    LUT budgets on one circuit, at {!master_seed} (used by the ppa_sweep
    example). *)

val sidechannel : ?seed:int -> unit -> string
(** DPA leakage (difference-of-means relative to mean power) of an
    original circuit versus its three hybrids, targeting each replaced
    gate's signal — the side-channel robustness claim of Section II made
    measurable. *)

val ablation_parametric : ?seed:int -> unit -> string
(** Sweep of the parametric algorithm's timing-constraint factor on
    s1196: inserted LUTs, measured degradation and attack cost per
    allowed slack. *)

val ablation_hardening : ?seed:int -> unit -> string
(** Effect of the Section IV-A.3 hardening measures (dummy extra LUT
    inputs, complex-function absorption) on the brute-force space and the
    hill-climbing attack. *)

val baselines : ?seed:int -> unit -> string
(** The paper's two comparison points made runnable (Section II and
    IV-A.3):
    - {e camouflaging} [12]: same number of hidden cells, but the attacker
      knows each cell is one of only three functions — search spaces and
      SAT-attack effort side by side;
    - {e SRAM-based LUTs} [8]: the same hybrid netlist priced with SRAM
      LUT cells — PPA comparison plus the volatility problem (the
      bitstream is exposed on every power-up, so its effective search
      space is 1). *)

val fault_sweep :
  ?seed:int ->
  ?bench:string ->
  ?rates:float list ->
  ?stuck_rate:float ->
  ?dies:int ->
  ?resilience:Sttc_core.Provision.resilience ->
  ?jobs:int ->
  unit ->
  string
(** Stochastic-write provisioning study (beyond the paper): protect one
    ISCAS twin (default s641, dependent selection), then program its
    foundry view through {!Sttc_fault.Mtj} channels across a sweep of
    write-error rates.  Two tables: a per-die detail comparing the
    zero-retry provisioner against the resilient one on the same die
    (outcome, retried/corrected/spared bits, write attempts, energy
    overhead versus the ideal channel, SAT sign-off of the effective
    view), and a programming-yield summary over [dies] independent
    dies per rate.  Each rate's dies are one {!Sttc_util.Pool.map} bag
    at [jobs]; every die's channel seed is derived up front, so the
    output is identical at any job count. *)

val ablation_constants : ?seed:int -> unit -> string
(** Eq. (2) attack cost under the paper's published alpha/P constants
    versus the constants computed from the meaningful-gate similarity
    metric in this repo — the sensitivity of Fig. 3 to that modelling
    choice. *)
