(** One-call attack campaign against a hybrid: run every implemented
    attack under resource limits and classify the outcome — the empirical
    counterpart of the paper's analytic Fig. 3. *)

type verdict =
  | Recovered  (** functionally correct bitstream extracted *)
  | Partial of float  (** fraction of configuration resolved *)
  | Resisted  (** attack exhausted its budget with nothing usable *)

type entry = {
  attack : string;
  verdict : verdict;
  seconds : float;
  oracle_queries : int;
  detail : string;
  sat_stats : Sttc_obs.Metrics.snapshot option;
      (** accumulated solver statistics as a metrics snapshot
          ([sat.decisions], [sat.conflicts], ... counters and the
          [sat.kept_clauses] gauge) — [Some] for the two SAT-based
          attacks, [None] for the rest.  The same series names the
          metrics exporter writes, so solver telemetry has one
          representation end to end. *)
}

type campaign = {
  circuit : string;
  algorithm : string;
  lut_count : int;
  entries : entry list;
}

(** The typed campaign configuration — the one schema the CLI, the
    campaign runner and the serve daemon all construct, mirroring
    {!Sttc_experiments.Runner.Config}: a record with a [default] value
    and [with_*] setters, plus a JSON codec on {!Sttc_obs.Json} so the
    same fields parse from a manifest, a command line or a serve
    request. *)
module Config : sig
  type t = {
    sat_timeout_s : float;  (** wall budget per attack (default 30) *)
    seq_timeout_s : float option;
        (** sequential-SAT override; defaults to [sat_timeout_s] *)
    tt_budget : int;  (** truth-table pattern budget (default 4000) *)
    guess_rounds : int;  (** hill-climb rounds (default 8) *)
    brute_max_bits : int;  (** brute-force cap in bits, 0-62 (default 16) *)
    seq_frames : int;  (** unrolled frames for sat-seq, >= 1 (default 4) *)
    seed : int;  (** default [0xcafe] *)
    jobs : int;  (** concurrent attacks; 1 = sequential (default) *)
    solver_mode : Sat_attack.solver_mode;  (** default [Incremental] *)
  }

  val default : t

  val with_sat_timeout_s : float -> t -> t
  val with_tt_budget : int -> t -> t
  val with_guess_rounds : int -> t -> t
  val with_jobs : int -> t -> t
  val with_solver_mode : Sat_attack.solver_mode -> t -> t

  val json : t Sttc_obs.Json.record
  (** Every field, [seq_timeout_s] omitted when [None]; [solver_mode] as
      ["incremental"] / ["scratch"].  Decoding takes any object whose
      fields are all of {!t}, well-typed and in range (the budgets, times
      and rounds at least 0); missing fields take their {!default}s, so
      [{}] parses. *)
end

val attack :
  ?backend:Sttc_backend.Backend.t ->
  ?config:Config.t ->
  circuit:string ->
  algorithm:string ->
  Sttc_core.Hybrid.t ->
  campaign
(** Runs six attacks: the combinational (scan-assumed) SAT attack, the
    sequential scan-disabled SAT attack on [seq_frames]-cycle sequences
    (default 4), random truth-table extraction, SAT-targeted truth-table
    extraction (ATPG), hill-climbing and brute force.

    [sat_timeout_s] is the wall-clock budget for {e every} attack, a
    {!Sttc_util.Budget} nested in any enclosing one: the SAT variants
    report expiry as their own [Exhausted "timeout"], the others are
    classified [Resisted] with a "wall-clock budget exhausted" detail.
    Either way an attack stops at its next poll after the deadline, on
    any domain.  [seq_timeout_s] gives the sequential SAT
    attack its own budget (it does bounded-unrolling work per iteration,
    so the combinational budget is usually too tight); it defaults to
    [sat_timeout_s].  A zero or negative budget skips the attack
    entirely and reports [Resisted] with detail ["zero budget"].

    [solver_mode] selects the SAT engine discipline for both SAT
    attacks: one persistent incremental solver per attack (the default,
    [Sat_attack.Incremental]) or a throwaway solver per call
    ([Sat_attack.Scratch], the from-scratch reference the incremental
    engine is checked against).

    The six attacks are one {!Sttc_util.Pool.map} bag at [jobs]: with
    [jobs > 1] they run concurrently, each on its own domain's recycled
    solver arena ({!Sat_attack.run}); every attack is seeded from [seed]
    alone, so the campaign is identical at any job count.

    [backend] (default {!Sttc_backend.Backend.stt}) shapes the
    attacker's knowledge: under a candidate-restricted backend the two
    SAT attacks and brute force restrict every LUT's key to the known
    candidate family (their [~candidates]), while the oracle-sampling
    attacks run unchanged.  The recovered bitstream is still verified
    against the real oracle either way. *)

val pp_campaign : Format.formatter -> campaign -> unit
val to_table : campaign list -> string
