(** Pluggable protection backends.

    The paper's STT-LUT defense is one point in a family of
    camouflaging/threshold techniques that all share a shape: an
    attacker-opaque cell with its own delay/power/area entries, a
    provisioning model that writes the secret configuration, a CNF
    description of what the attacker does {e not} know, and per-cell
    security constants for the Eq. 1-3 estimates.  A {!t} bundles those
    four axes so the flow, the attack harness, the campaign engine and
    the CLI can be cross-technology without special cases.

    What is backend-owned: the reconfigurable-cell technology entry
    ({!Sttc_tech.Library.lut_style}), the candidate restriction of the
    unknown function (and therefore the SAT encoding and keyspace
    accounting), the [alpha]/[p] constants of the security equations,
    and the per-cell write energy/time used by provisioning.

    What stays flow-owned: gate selection (which runs against the
    canonical library, so the hybrid structure is a pure function of
    (netlist, algorithm, seed) and is {e identical across backends}),
    the hybrid construction, equivalence sign-off, and the lint rules
    on the resulting structure. *)

type family = (int -> Sttc_logic.Truth.t list) option
(** What an attacker knows of one hidden cell of arity [n]: [None], any
    of the [2^2^n] functions (STT LUT); [Some f], exactly the tables
    [f n] — only the choice among them is secret. *)

type t = {
  name : string;  (** CLI / JSON identifier, e.g. ["stt"] *)
  description : string;
  lut_style : Sttc_tech.Library.lut_style;
      (** the technology entry used to price the hybrid in {!Ppa} *)
  cell_noun : string;
      (** the word for one programmable cell in provisioning reports,
          e.g. ["MTJ"] *)
  candidates : family;
      (** the cell's candidate family; the SAT attacks and brute force
          restrict their keys to it *)
  alpha : int -> float;  (** test patterns per missing cell (Eq. 1-2) *)
  p : int -> float;  (** plausible candidate count per missing cell *)
  write_energy_fj : float;  (** per-cell configuration write energy *)
  write_time_ns : float;  (** per-cell serial configuration time *)
}

val name : t -> string

val cell_keyspace : family -> arity:int -> Sttc_util.Lognum.t
(** Configurations of one cell: [2^2^n] for a free family, [f n]'s size
    for a restricted one.  With {!search_space}, the only key count. *)

val search_space :
  family ->
  Sttc_netlist.Netlist.t ->
  Sttc_netlist.Netlist.node_id list ->
  Sttc_util.Lognum.t
(** Product of {!cell_keyspace} over the listed LUTs of the foundry
    view ([2^(config bits)] for a free family): the keyspace an attacker
    who knows the family faces. *)

(** {2 Registry} *)

val stt : t
(** The paper's technology.  Every constant equals the pre-backend
    defaults, so flows run under [stt] are byte-identical to the
    historical STT-LUT path. *)

val find : string -> t option
(** Look a backend up by {!name}. *)

val find_exn : string -> t
(** @raise Invalid_argument on unknown names, listing the known ones. *)

val names : unit -> string list
(** Every registered backend, [stt] first. *)

(** {2 Flow integration helpers} *)

val eval_library : t -> Sttc_tech.Library.t -> Sttc_tech.Library.t
(** The library used to price a hybrid under this backend: same clock,
    the backend's reconfigurable-cell technology. *)

val sat_candidates :
  family ->
  Sttc_netlist.Netlist.t ->
  Sttc_netlist.Netlist.node_id list ->
  (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t list) list
(** The per-LUT candidate lists the SAT attacks and brute force take as
    [~candidates], read off the foundry view's LUT arities.  Empty for a
    free family. *)
