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

val algorithm_json : algorithm Sttc_obs.Json.kind
(** The canonical wire form shared by campaign manifests and serve
    requests: ["dependent"] as a bare string,
    [{"name": "independent", "count": n}] and
    [{"name": "parametric", "clock_factor": f}] as objects.  A bare
    string stands for any of the three names with its defaults ([count]
    5, [clock_factor] the default parametric budget).  Each name's
    object holds its own keys only: [clock_factor] on an independent
    algorithm is an unknown field. *)

val fraction : float Sttc_obs.Json.kind
(** A selection fraction, in (0, 1]. *)

val clock_factor : float Sttc_obs.Json.kind
(** A parametric clock budget, at least 1: below 1 no LUT meets a budget
    the unmodified design already misses, so every such factor selects
    the same set.  [sttc lint --clock-factor] is checked against it. *)

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

val hardened : hardening
(** Two dummy inputs per LUT and driver absorption: what a manifest
    config's [harden], the [sttc protect --harden] flag and the serve
    protect verb mean by hardening. *)

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
      (** the structural pack's findings on the programmed hybrid: STR004
          dead-logic warnings only, since the netlist builder refuses
          every malformation the pack's other rows name *)
  parametric_meta : Algorithms.parametric_meta option;
      (** selection metadata when the algorithm was parametric-aware *)
}

type policy = Strict
type resilient = { accepted : result }
(** {!run}'s [policy] argument and return wrapper.  There is one protect
    path, so both carry nothing; they are kept only because the
    performance ledger's workloads ([bench/ledger/]) name
    [~policy:Flow.Strict] and [.Flow.accepted]. *)

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
    around it.  Deterministic for a fixed seed.
    Selection times the netlist under {!Sttc_tech.Library.cmos90}.

    [backend] (default {!Sttc_backend.Backend.stt}) picks the protection
    technology.  Selection and hybrid construction are backend
    independent — the same (netlist, algorithm, seed) yields the same
    hybrid under every backend — while the PPA pricing, the Eq. 1-3
    constants and the provisioning cost are the backend's.

    [baseline] supplies the input netlist's memoized PPA baseline (e.g.
    from [Runner.rows]' build task or the serve session cache), computed
    once per netlist instead of once per run.  It is used only where it
    {!Ppa.matches} — this exact netlist value and an equal library: its
    timing analysis for selection under the 90 nm library, the whole
    baseline for the evaluation under the backend's pricing library,
    {!Sttc_backend.Backend.eval_library} (counter [flow.baseline_reused]).
    So it can never change results, only skip the base [Sta.analyze] and
    [Activity.analyze].

    The run records the structural pack's findings in [lint] and gates
    on none of them.  The {!Sttc_lint.Semantic_rules} pack (the Eq. 1
    prover on the foundry view with the true bitstream) runs in
    [sttc lint --semantic], through [Sttc_serve.Handler.lint_diagnostics],
    which reports its findings instead of failing the protect.

    One attempt at [seed].  Raises [Invalid_argument] when the netlist
    has no CMOS gates, or when hardening is asked of a
    candidate-restricted backend (e.g. [tvd], whose cells cannot realize
    the expanded functions).  A parametric selection that misses its
    clock budget does not raise: the miss shows in the overhead report,
    and {!lint_security}'s SEC005 flags it. *)

val lint_security : result -> Sttc_lint.Diagnostic.t list
(** Run the {!Sttc_lint.Security_rules} pack on the result's security
    view: foundry netlist, LUT ids, algorithm tag, parametric metadata,
    original netlist and clock budget (the parametric [clock_factor],
    1.08 otherwise). *)

val sign_off : result -> bool
(** Programmed hybrid equivalent to the original, by SAT equivalence
    ({!Hybrid.verify})? *)

val pp_result : Format.formatter -> result -> unit
