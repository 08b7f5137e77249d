(** Gate-level sequential netlists.

    A netlist is a frozen array of nodes.  Each node drives exactly one
    signal, identified by the node id; primary outputs are named references
    to driver nodes.  Combinational cycles are rejected at build time —
    every feedback loop must pass through a D flip-flop, matching the
    ISCAS'89 circuit model the paper evaluates on. *)

type node_id = int

type kind =
  | Pi  (** primary input *)
  | Const of bool
  | Gate of Sttc_logic.Gate_fn.t  (** custom CMOS gate *)
  | Lut of {
      arity : int;
      config : Sttc_logic.Truth.t option;
          (** [None] is a missing gate as seen by the foundry; [Some _] is a
              programmed STT LUT. *)
    }
  | Dff  (** D flip-flop; single fanin is the D input *)

type node = {
  name : string;
  kind : kind;
  fanins : node_id array;
}

type t

(** {1 Accessors} *)

val design_name : t -> string
val node_count : t -> int
val node : t -> node_id -> node
val kind : t -> node_id -> kind
val name : t -> node_id -> string
val fanins : t -> node_id -> node_id array
val find : t -> string -> node_id option
val find_exn : t -> string -> node_id

val outputs : t -> (string * node_id) array
(** Primary outputs as (name, driver). *)

val iter : (node_id -> node -> unit) -> t -> unit
val fold : (node_id -> node -> 'a -> 'a) -> t -> 'a -> 'a

val pis : t -> node_id list
val pos : t -> node_id list
(** Driver nodes of primary outputs (deduplicated, in output order). *)

val dffs : t -> node_id list
val gates : t -> node_id list
(** Combinational gate nodes (excludes LUTs). *)

val luts : t -> node_id list

val is_combinational : kind -> bool
(** True for [Gate] and [Lut]. *)

val gate_count : t -> int
(** Number of combinational nodes (gates + LUTs), the paper's circuit
    "size" (flip-flops excluded). *)

val fanouts : t -> node_id -> node_id list
(** Nodes reading this node's signal (computed once, cached). *)

val fanout_degree : t -> node_id -> int

val topo_order : t -> node_id array
(** All nodes in combinational topological order: PIs, constants and DFFs
    first (in id order), then every combinational node after all of its
    fanins.  DFF D-inputs do not constrain the order (they are sequential
    edges). *)

type program = {
  dst : node_id array;
      (** instruction [i] computes node [dst.(i)], in {!topo_order};
          sources (PIs, flip-flops) have no instruction, constants do *)
  first : int array;
      (** instruction [i] reads [fanin.(first.(i))] ..
          [fanin.(first.(i + 1) - 1)], its node's fanins in order;
          [Array.length first = Array.length dst + 1] *)
  fanin : node_id array;
  pis : node_id array;  (** as {!pis} *)
  dffs : node_id array;  (** as {!dffs} *)
  d_inputs : node_id array;  (** D input of [dffs.(j)] *)
  out_drivers : node_id array;  (** driver of each of {!outputs} *)
}
(** The structure of one combinational evaluation sweep, flattened:
    what {!Sttc_sim.Simulator} and {!Sttc_analysis.Activity} iterate.
    Read-only: the arrays are shared by every reader of the netlist. *)

val program : t -> program
(** The compiled sweep (computed once, cached like {!topo_order}). *)

val warm : t -> unit
(** Force the lazily-computed fanout, topological-order and {!program}
    caches.  A netlist is otherwise immutable, so after [warm] it can be
    shared read-only across domains (e.g. {!Sttc_util.Pool} tasks)
    without the unsynchronized lazy-initialization race the caches would
    cause. *)

val stats : t -> string
(** One-line summary for logs. *)

(** {1 Construction} *)

module Builder : sig
  type netlist := t
  type t

  val create : ?design_name:string -> unit -> t

  val add_pi : t -> string -> node_id
  val add_const : t -> string -> bool -> node_id
  val add_gate :
    t -> string -> Sttc_logic.Gate_fn.t -> node_id array -> node_id
  (** [add_gate b name fn fanins] stores [fanins] itself as the node's
      fanin array: the caller passes a fresh array and does not mutate it
      afterwards.  Stores the one shared [Gate fn] kind value of [fn]:
      every gate of the same function, from any builder, has a physically
      equal {!kind}.  Raises [Invalid_argument] for an invalid [fn] (as
      {!Sttc_logic.Gate_fn.validate}), then for a fanin count other than
      [fn]'s arity, then for a reference to a node not yet added. *)

  val add_lut :
    t -> string -> ?config:Sttc_logic.Truth.t -> node_id array -> node_id
  (** Keeps [fanins] as {!add_gate} does.  Raises [Invalid_argument] for
      an arity outside [1, Truth.max_arity], then for a [config] of
      another arity, then for a reference to a node not yet added. *)

  val add_dff : t -> string -> node_id -> node_id
  val add_dff_deferred : t -> string -> node_id
  (** A flip-flop whose D input is wired later with {!set_dff_input} —
      needed to build feedback loops. *)

  val set_dff_input : t -> node_id -> node_id -> unit
  val add_output : t -> string -> node_id -> unit

  val finalize : t -> netlist
  (** Validates, indexes the node names and freezes.  Raises
      [Invalid_argument "Builder: duplicate node name n"] when two nodes
      share a name, naming the duplicate with the smallest id (the later
      node of its pair); then on an empty output list or dangling DFF
      inputs.  The [add_*] calls only record a name (refusing the empty
      one): arity mismatches and references to undefined nodes are
      refused earlier, by the call that makes them.  A combinational
      cycle cannot be built: every fanin exists before its reader is
      added, which also gives {!topo_order} directly (sources in id
      order, then combinational nodes in id order). *)
end

val kind_delta : t -> t -> node_id list option
(** [kind_delta a b] is [Some ids] when [b] is {e id-compatible} with [a] —
    same node count and output list, and every node keeps its name and
    fanin array — with
    [ids] (ascending) the nodes whose kinds differ (necessarily
    combinational-to-combinational rewrites, i.e. gate/LUT kind or config
    changes).  [None] when the two netlists differ structurally, or when a
    kind change crosses the combinational/sequential/source boundary.
    This is the compatibility test behind the incremental re-analysis
    paths ({!Sttc_analysis.Sta.retime} and friends): [Some] guarantees the
    fanout, topological-order and {!program} caches of [a] remain valid
    for [b]. *)

val with_kinds :
  t -> (node_id -> kind -> node_id array -> kind * node_id array) -> t
(** [with_kinds t f] copies [t], rewriting each node's kind and fanins with
    [f] while preserving node ids and names.  Every node [f] changes is
    re-validated (fanin arities, reference ranges), and so is
    combinational acyclicity; raises [Invalid_argument] on violation.  A
    node for which [f] returns its own kind and fanin array (physically)
    keeps its record unchecked.  When no fanin array changes physically
    and no kind moves between [Pi], [Dff], [Const] and [Gate]/[Lut], the
    copy inherits [t]'s fanout, topological-order and {!program} caches
    as they stand (physically shared) and skips the cycle check.  This is
    the primitive beneath [Transform]. *)
