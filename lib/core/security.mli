(** Attack-cost estimation — Equations (1), (2) and (3) of Section IV-A.

    All quantities are carried in the log domain ({!Sttc_util.Lognum})
    because dependent-selection costs reach 1e200+ test clocks.  Per-gate
    constants come from {!Sttc_logic.Gate_fn}: [alpha] (patterns to
    determine one independent missing gate) and [P] (candidate functions
    per missing gate), with the paper's published values as default. *)

type constants = {
  alpha : int -> float;  (** by fan-in *)
  p : int -> float;  (** by fan-in *)
}

val paper_constants : constants
(** alpha = 2.45 / 4.2 / 7.4 and P = 2.5 / 5.0 / 5.4 for 2-/3-/4-input. *)

val computed_constants : constants
(** Derived from the meaningful-gate similarity metric in this repo. *)

type report = {
  missing_gates : int;  (** M *)
  accessible_inputs : int;  (** I of Eq. (3) *)
  total_config_bits : int;
  n_indep : Sttc_util.Lognum.t;  (** Eq. (1) *)
  n_dep : Sttc_util.Lognum.t;  (** Eq. (2) *)
  n_bf : Sttc_util.Lognum.t;  (** Eq. (3) *)
  dependent_pairs : int;
      (** ordered LUT pairs [(a, b)] where [b] is reachable from [a]
          without crossing a flip-flop — the dependency count motivating
          Eq. (2), from {!Sttc_netlist.Query.connected_lut_pair_count}
          (a count: no pair list is built) *)
}

val evaluate :
  ?constants:constants ->
  Sttc_netlist.Netlist.t ->
  luts:Sttc_netlist.Netlist.node_id list ->
  report
(** Evaluate a hybrid (foundry view or programmed; only structure is
    used).  [D_i] is one plus the minimum number of flip-flops between
    LUT [i] and a primary output (a value must survive at least one
    capture to be observed). *)

val years_to_break : Sttc_util.Lognum.t -> Sttc_util.Lognum.t
(** Test clocks to years at 1e9 clocks per second (the paper's "one
    billion pattern application per second"). *)

val pp_report : Format.formatter -> report -> unit
