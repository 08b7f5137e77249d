(** The security-driven hybrid STT-CMOS design flow of Figure 2.

    Input: a synthesized gate-level netlist, the technology library, and a
    security requirement (which selection algorithm, with what
    parameters).  Output: the hybrid design plus the security and PPA
    reports, ready for physical design — with an optional sign-off
    equivalence check of the programmed view. *)

type algorithm =
  | Independent of { count : int }  (** paper: 5 *)
  | Dependent
  | Parametric of Algorithms.parametric_options

val algorithm_name : algorithm -> string
(** "independent" / "dependent" / "parametric". *)

val algorithm_to_json : algorithm -> Sttc_obs.Json.t
(** The canonical wire form shared by campaign manifests, CLI flags and
    serve requests: ["dependent"] as a bare string,
    [{"name": "independent", "count": n}] and
    [{"name": "parametric", "clock_factor": f}] as objects. *)

val algorithm_of_json : Sttc_obs.Json.t -> (algorithm, string) result
(** Inverse of {!algorithm_to_json}; also accepts a bare string for any
    of the three names ([count] defaults to 5, [clock_factor] to the
    default parametric budget). *)

type hardening = {
  extra_inputs_per_lut : int;
      (** connect up to this many unused (logically ignored) inputs per
          LUT to unrelated signals — Section IV-A.3's search-space
          expansion (default 0) *)
  absorb_drivers : bool;
      (** merge a single-fanout driver gate into each selected LUT so the
          slot realizes a complex multi-gate function (default false) *)
}

val no_hardening : hardening

val default_algorithms : algorithm list
(** The three configurations used across the paper's experiments. *)

type result = {
  algorithm : algorithm;
  hybrid : Hybrid.t;
  security : Security.report;
  overhead : Ppa.overhead;
  selection_seconds : float;
      (** wall-clock of selection + replacement only (Table II metric) *)
  lint : Sttc_lint.Diagnostic.t list;
      (** structural diagnostics of the programmed hybrid (warnings and
          infos; error-severity findings make {!protect} raise) *)
  parametric_meta : Algorithms.parametric_meta option;
      (** selection metadata when the algorithm was parametric-aware *)
}

(** {1 The unified entry point}

    One function covers both failure semantics; callers choose with a
    {!policy} value rather than between differently-named entry points:

    - [run ~policy:Strict] fails hard — parametric selection that cannot
      meet its clock budget, or a netlist whose hybrid trips the
      structural lint, raises [Invalid_argument] and takes the run with
      it;
    - [run ~policy:(Resilient r)] retries with fresh seeds and then
      walks an explicit graceful-degradation chain
      (parametric → dependent → independent), recording every rejected
      attempt so the caller can see what it actually got. *)

type resilience = {
  max_reseeds : int;
      (** extra seeds tried per degradation step before moving on *)
}

type policy =
  | Strict
  | Resilient of resilience

type rejection = {
  attempted : algorithm;
  attempt_seed : int;
  reason : string;  (** timing miss or the exception message *)
}

type resilient = {
  accepted : result;  (** the first attempt that passed *)
  requested : algorithm;
  rejections : rejection list;  (** failed attempts, in order *)
  degraded : bool;
      (** the accepted algorithm is weaker than the requested one *)
}
(** What {!run} produces.  Under [Strict] the outcome is always
    [{ accepted; requested; rejections = []; degraded = false }]. *)

val run :
  ?seed:int ->
  ?fraction:float ->
  ?hardening:hardening ->
  ?backend:Sttc_backend.Backend.t ->
  ?baseline:Ppa.baseline ->
  policy:policy ->
  algorithm ->
  Sttc_netlist.Netlist.t ->
  resilient
(** Run the full selection-and-replacement stage and the evaluation
    around it.  Deterministic for a fixed seed at either policy.
    Selection times the netlist, and the structural lint checks the
    hybrid, under {!Sttc_tech.Library.cmos90}.

    [backend] (default {!Sttc_backend.Backend.stt}) picks the protection
    technology.  Selection and hybrid construction are backend
    independent — the same (netlist, algorithm, seed) yields the same
    hybrid under every backend — while the PPA pricing, the Eq. 1-3
    constants and the provisioning cost are the backend's.  Hardening
    raises [Invalid_argument] under a candidate-restricted backend
    (e.g. [tvd]): its cells cannot realize the expanded functions.

    [baseline] supplies the input netlist's memoized PPA baseline (e.g.
    from [Runner.rows]' build task or the serve session cache), computed
    once per netlist instead of once per run.  It is used only where it
    {!Ppa.matches} — this exact netlist value and an equal library: its
    timing analysis for selection under the 90 nm library, the whole
    baseline for the evaluation under the backend's pricing library
    (counter [flow.baseline_reused]).  So it can never change results,
    only skip the base [Sta.analyze] and [Activity.analyze].

    The run gates every attempt on the structural pack only.  The
    {!Sttc_lint.Semantic_rules} pack (the Eq. 1 prover on the foundry
    view with the true bitstream) runs in [sttc lint --semantic], through
    [Sttc_serve.Handler.lint_diagnostics], which reports its findings
    instead of failing the protect.

    [Strict]: a single attempt at [seed]; any failure raises
    [Invalid_argument].

    [Resilient { max_reseeds }]: try the requested algorithm at seeds
    [seed, seed+1, .., seed+max_reseeds], then degrade along
    {e parametric → dependent → independent} with the same reseed budget
    per step.  Raises [Invalid_argument] only when every attempt of
    every step failed (e.g. a netlist with no replaceable gates), with
    the full rejection list in the message. *)

val eval_library : Sttc_backend.Backend.t -> Sttc_tech.Library.t
(** The library {!run} prices the PPA overheads under:
    {!Sttc_tech.Library.cmos90} with the backend's own cell technology.
    A shared [?baseline] is computed under it. *)

val lint_security : result -> Sttc_lint.Diagnostic.t list
(** Run the {!Sttc_lint.Security_rules} pack on the result's security
    view: foundry netlist, LUT ids, algorithm tag, parametric metadata,
    original netlist and clock budget (the parametric [clock_factor],
    1.08 otherwise). *)

val sign_off : result -> bool
(** Programmed hybrid equivalent to the original, by SAT equivalence
    ({!Hybrid.verify})? *)

val pp_result : Format.formatter -> result -> unit
