(** A CDCL SAT solver: two-watched literals, first-UIP clause learning,
    VSIDS-style activity ordering, phase saving and Luby restarts.

    The engine is a {e persistent, incremental} solver ({!Solver}):
    clauses can be appended after construction, and each
    {!Solver.solve} call runs under a set of assumption literals while
    retaining learned clauses, variable activities and saved phases
    from previous calls.  Learned-clause retention is kept in check by
    LBD-based clause-database reduction.  This is the engine behind the
    oracle-guided SAT attack of [Sttc_attack.Sat_attack] and the
    miter-based equivalence check of [Sttc_sim.Equiv].  Scale target:
    the formulas arising from circuits of a few thousand gates. *)

type result =
  | Sat of bool array
      (** [Sat model]: [model.(v)] is the value of variable [v]
          (index 0 unused). *)
  | Unsat
      (** Unsatisfiable — under the given assumptions if any were
          passed, unconditionally otherwise. *)
  | Unknown of string
      (** The solve was cut short ([max_conflicts] exhausted); the
          payload names the spent budget.  Never returned by an
          unbudgeted call.  Distinct from {!Unsat} so resource
          exhaustion cannot masquerade as proven unsatisfiability. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;  (** clauses learned (total, including later removed) *)
  kept : int;  (** learned clauses currently retained in the database *)
  removed : int;  (** learned clauses deleted by LBD-based reduction *)
  restarts : int;
}

val zero_stats : stats

(** {1 The persistent incremental solver} *)

module Solver : sig
  type t
  (** A stateful solver handle.  Not thread-safe; use one handle per
      domain. *)

  val create : unit -> t
  (** A solver over the empty formula. *)

  val of_cnf : Cnf.t -> t
  (** [create] followed by {!sync}. *)

  val sync : t -> Cnf.t -> unit
  (** Append the clauses added to [cnf] since the last [sync] of this
      solver (a cursor over [cnf]'s clause list), together with any new
      variables.  A solver tracks one growing formula: always [sync]
      against the same [Cnf.t]. *)

  val reset : t -> unit
  (** Return the solver to the empty-formula state of {!create} while
      keeping every allocated array, so the arena can be recycled
      across unrelated formulas — the reuse discipline of a
      long-running service that holds one solver per worker.
      Behaviourally identical to a fresh solver: clauses, learned
      clauses, activities, saved phases, the restart schedule and
      {!stats} all restart from zero, so a recycled solver recovers
      byte-identical answers to a newly created one.  After [reset]
      the solver may be {!sync}ed against a different [Cnf.t]. *)

  val solve : ?assumptions:Cnf.lit list -> ?max_conflicts:int -> t -> result
  (** Decide satisfiability of the accumulated clauses under
      [assumptions], MiniSat-style: assumptions are decided (not
      asserted), so everything learned during the call is implied by
      the clauses alone and remains valid for later calls with
      different assumptions.  [Unsat] with assumptions means
      "unsatisfiable under these assumptions"; once [Unsat] is derived
      with no assumptions the solver is permanently unsatisfiable.
      [max_conflicts] bounds this call's conflicts; exhaustion returns
      {!Unknown}.  The wall-clock {!Sttc_util.Budget} is polled on entry
      and every 256 conflicts; its exhaustion unwinds the call, and the
      solver stays usable for later calls. *)

  val stats : t -> stats
  (** Cumulative statistics since {!create} or the last {!reset};
      [kept] is the current retained learned-clause count. *)
end

(** {1 One-shot convenience wrappers}

    Each call builds a fresh throwaway {!Solver.t}; tests also use it
    as the from-scratch reference for the incremental interface. *)

val solve : ?max_conflicts:int -> Cnf.t -> result
(** [solve cnf] decides satisfiability of a formula from scratch. *)

val model_value : bool array -> int -> bool
(** [model_value model v] reads variable [v] from a {!Sat} model. *)
