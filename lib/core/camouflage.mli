(** IC camouflaging baseline — the comparison point of Section IV-A.3.

    A camouflaged cell looks identical under delayering for a small, known
    set of functions (classically NAND2 / NOR2 / XNOR2 [12]); the attacker
    knows the candidate set and only has to pick 1-of-3 per cell, versus
    the 6-16 meaningful functions (more with dummy inputs and complex
    functions) a reconfigurable STT LUT can realize.  The paper argues
    this is camouflaging's fundamental weakness; this module makes the
    comparison runnable. *)

val candidate_functions : Sttc_logic.Gate_fn.t list
(** NAND2, NOR2, XNOR2. *)

type t

val eligible : Sttc_netlist.Netlist.t -> Sttc_netlist.Netlist.node_id list
(** Gates a camouflaged standard cell can stand in for (2-input gates
    whose function is in the candidate set). *)

val make :
  Sttc_netlist.Netlist.t -> Sttc_netlist.Netlist.node_id list -> t
(** Camouflage the listed gates.  Raises [Invalid_argument] when a gate is
    not {!eligible}. *)

val random :
  rng:Sttc_util.Rng.t -> count:int -> Sttc_netlist.Netlist.t -> t
(** Camouflage [count] random eligible gates (fewer when the circuit does
    not have enough — matching the independent-selection setup). *)

val cell_count : t -> int
val hybrid : t -> Hybrid.t
(** The camouflaged design expressed as LUT slots (what both the
    PPA evaluation and the SAT attack consume). *)

val search_space : t -> Sttc_util.Lognum.t
(** [3^M] — against the STT hybrid's [2^(config bits)]. *)

val sat_candidates :
  t -> (Sttc_netlist.Netlist.node_id * Sttc_logic.Truth.t list) list
(** The per-cell candidate lists in the form [Sat_attack.run ~candidates]
    consumes — what a camouflaging attacker knows that an STT attacker
    does not. *)
