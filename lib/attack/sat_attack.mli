(** The oracle-guided SAT attack (Subramanyan et al. style) against hybrid
    STT-CMOS designs — the strongest of the "machine learning /
    de-camouflaging" attack family the paper cites as [11].

    Two copies of the foundry netlist share their inputs but carry
    independent symbolic keys; a satisfying assignment where the copies
    disagree yields a {e distinguishing input}, whose oracle response
    prunes all keys inconsistent with it.  When no distinguishing input
    remains, any surviving key is functionally correct.

    The attack holds {e one} [Sat.Solver] for its whole run: the miter
    clause sits behind an activation literal, each distinguishing input
    appends two oracle-constrained circuit copies to the live solver, and
    the final key extraction solves under assumptions on the same solver
    — nothing the solver learned is ever thrown away. *)

type solver_mode =
  | Incremental
      (** One persistent solver across all iterations (the default). *)
  | Scratch
      (** Rebuild a throwaway solver from the full CNF on every call —
          the from-scratch reference the incremental engine is checked
          against.  Recovers the same key and verdict as
          [Incremental]. *)

type outcome =
  | Broken of {
      bitstream : (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list;
      queries : int;  (** distinguishing patterns applied to the oracle *)
      iterations : int;
      seconds : float;
      stats : Sttc_logic.Sat.stats;
          (** the run's solver work: the live solver's statistics
              under [Incremental] (counted from the arena's reset), the
              sum over every call's throwaway solver under [Scratch] *)
    }
      (** A functionally correct configuration was recovered (it may
          differ syntactically from the secret one).  The bitstream is
          canonical — the lexicographically minimal consistent key — so
          both solver modes recover the identical one. *)
  | Exhausted of {
      iterations : int;
      seconds : float;
      reason : string;
      stats : Sttc_logic.Sat.stats;
    }
      (** Resource limit hit before convergence.  A conflict-budget
          exhaustion surfaces here (via [Sat.Unknown]) — it is never
          conflated with a proven UNSAT.  Under a ["timeout"], [stats]
          include the work of the solver call the deadline cut. *)

val run :
  ?max_iterations:int ->
  ?max_conflicts_per_call:int ->
  ?timeout_s:float ->
  ?candidates:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t list) list ->
  ?mode:solver_mode ->
  Sttc_core.Hybrid.t ->
  outcome
(** Defaults: 2000 iterations, 200k conflicts per solver call, 60 s,
    [Incremental].  The oracle is constructed internally from the
    hybrid's secret programmed view — the attacker code only ever
    touches the foundry view and the oracle interface.

    The [Incremental] engine runs on its domain's solver arena, created
    on the domain's first attack and recycled by every later one: the
    attack {!Sttc_logic.Sat.Solver.reset}s it and then owns it for the
    whole run.  Because [reset] restores fresh-solver semantics, the
    recovered key and the run's [stats] are those of a fresh solver.
    One domain runs one attack at a time, so no two attacks share an
    arena.

    [candidates] restricts the key space of specific LUTs to an explicit
    candidate list — the attacker model against {e camouflaged} cells,
    whose possible functions are known and few (the comparison of
    Section IV-A.3).  LUTs without an entry keep their full key space. *)

val verify_break :
  Sttc_core.Hybrid.t ->
  (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t) list ->
  bool
(** Is the recovered bitstream functionally equivalent to the secret one
    (SAT equivalence of the two programmed views)? *)

val run_sequential :
  ?frames:int ->
  ?max_conflicts_per_call:int ->
  ?timeout_s:float ->
  ?candidates:(Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t list) list ->
  ?mode:solver_mode ->
  Sttc_core.Hybrid.t ->
  outcome
(** The scan-disabled variant — the access model the paper assumes for
    deployed parts.  The attacker can only reset the chip, feed [frames]
    (default 5) input vectors, and watch the primary outputs; state is
    neither controllable nor observable.  At most 500 sequences are
    learned; the other defaults are {!run}'s.  Distinguishing
    {e sequences} are found on a time-unrolled double-key miter.  Keys that agree on all
    length-[frames] sequences may still differ on longer ones, so a
    recovered bitstream is verified and reported [Exhausted] with reason
    ["sequence-length limit"] when it is wrong — quantifying how much
    harder the sequential attack is than the combinational one.
    [candidates] restricts per-LUT key spaces exactly as in {!run}. *)
