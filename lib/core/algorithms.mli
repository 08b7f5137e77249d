(** The paper's three CMOS-gate selection algorithms.

    Each returns the list of gate ids to replace with STT LUTs; feeding
    the result to [Hybrid.make] produces the hybrid netlist. *)

val independent :
  rng:Sttc_util.Rng.t -> ?count:int -> Select.context -> Sttc_netlist.Netlist.node_id list
(** Independent selection (Section IV-A.1): [count] gates (paper default
    5) drawn at random from the nodes of the sampled I/O paths, with no
    dependency requirement.  Falls back to the whole gate population if
    the paths provide too few candidates; returns fewer than [count] only
    when the circuit itself is smaller. *)

val dependent :
  rng:Sttc_util.Rng.t -> Select.context -> Sttc_netlist.Netlist.node_id list
(** Dependent selection (Algorithm 1): take the deepest sampled
    non-critical I/O path and replace {e all} gates on its composing
    timing paths, so that missing gates feed missing gates. *)

type parametric_options = {
  clock_factor : float;
      (** timing constraint as a multiple of the baseline critical delay
          (default 1.08: up to 8 % degradation allowed, matching the
          worst parametric rows of Table I) *)
  n_paths : int option;
      (** how many sampled I/O paths to draw timing paths from;
          [None] picks [max 1 (gate_count / 1500)] *)
  select_fraction : float;
      (** fraction of eligible (fan-in >= 2) gates initially drawn per
          timing path (default 0.35) *)
  max_retries : int;  (** re-draws per timing path on violation (default 6) *)
}

val default_parametric : parametric_options

type parametric_meta = {
  usl : Sttc_netlist.Netlist.node_id list;
      (** unselected gates of the chosen timing paths (Algorithm 2's
          USL) *)
  closure_neighbours : Sttc_netlist.Netlist.node_id list;
      (** off-path neighbourhood gates the USL closure replaced, after
          timing repair — the set the [missing-neighbour] lint rule
          re-verifies against the hybrid *)
}

val parametric_with_meta :
  rng:Sttc_util.Rng.t ->
  ?options:parametric_options ->
  Select.context ->
  Sttc_netlist.Netlist.node_id list * parametric_meta
(** Parametric-aware dependent selection (Algorithm 2): per chosen timing
    path, draw random fan-in >= 2 gates and re-draw smaller subsets while
    the timing constraint is violated; every unselected gate of the path
    goes to the USL, and afterwards each gate driving or driven by a USL
    gate — but itself not on the chosen I/O paths — is also replaced.
    Also returns the selection metadata consumed by the
    {!Sttc_lint.Security_rules} pack. *)
