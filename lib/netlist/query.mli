(** Structural queries over netlists: cones, levels and reachability.

    The selection algorithms reason in these terms: transitive fan-in of a
    missing gate bounds the attacker-controllable inputs [I] of Eq. (3);
    combinational levels feed the timing model; reachability between LUTs
    establishes the "dependent" property of Section IV-A.2. *)

val fanin_cone : Netlist.t -> Netlist.node_id -> Netlist.node_id list
(** Transitive fan-in through combinational nodes only, stopping at (and
    including) PIs, constants, and DFF outputs.  Includes the start node. *)

val fanout_cone : Netlist.t -> Netlist.node_id -> Netlist.node_id list
(** Transitive fan-out through combinational nodes only, stopping at (and
    including) DFF inputs and primary-output drivers.  Includes the start
    node. *)

val cone_inputs : Netlist.t -> Netlist.node_id list -> Netlist.node_id list
(** Sources (PIs, constants, DFF outputs) feeding the combinational cones
    of the given nodes — the attacker-accessible inputs [I] of Eq. (3). *)

val depth : Netlist.t -> int
(** Maximum combinational level (logic depth of the longest stage):
    sources are level 0, and a combinational node is 1 + the max of its
    fanin levels. *)

val reaches : Netlist.t -> Netlist.node_id -> Netlist.node_id -> bool
(** [reaches t a b]: is there a directed path (through any node kind,
    crossing flip-flops) from [a] to [b]? *)

val reaches_combinationally :
  Netlist.t -> Netlist.node_id -> Netlist.node_id -> bool
(** Same but without crossing {e through} flip-flops.  Reaching a flip-flop
    node as the destination means reaching its D input, which is a purely
    combinational path and therefore counts. *)

val sequential_depth_to_po : Netlist.t -> int array
(** For each node, the minimum number of flip-flops on any path from the
    node to a primary output ([D_i] of Eqs. (1) and (2): how many clock
    cycles are needed to propagate the node's value to an observation
    point).  Nodes that reach no output get [max_int]. *)

type cone_summary = {
  support : int array;
      (** distinct sources (PIs, constants, DFF outputs) in the node's
          combinational fanin cone — the attacker-controllable inputs
          [I] of Eq. (3), per node *)
  support_hash : int array;
      (** hash of the fanin-cone source {e set}: equal sets yield equal
          hashes, so it pre-filters candidate pairs for semantic
          equivalence checks *)
  obs_points : int array;
      (** number of observation points (primary outputs, flip-flop D
          inputs) the node reaches combinationally; 0 means structurally
          unobservable in this clock cycle *)
}

val cone_summary : Netlist.t -> cone_summary
(** All three per-node summaries in two bitset sweeps (one forward, one
    reverse topological pass) — computed once per analysis run and shared
    across lint rules instead of per-rule cone walks. *)

val connected_lut_pair_count : Netlist.t -> Netlist.node_id list -> int
(** The number of ordered pairs [(a, b)] of distinct members of [ids]
    where [b] is combinationally reachable from [a] — the dependency
    count the dependent-selection security argument relies on.  A path
    never crosses a flip-flop, so a flip-flop member is in no pair; a
    repeated id counts once.  One forward sweep per 63 members, in
    O(edges x |ids|/63).  Raises [Invalid_argument] on an id outside the
    netlist. *)
