(** IC camouflaging baseline — the comparison point of Section IV-A.3.

    A camouflaged cell looks identical under delayering for a small, known
    set of functions (classically NAND2 / NOR2 / XNOR2 [12]); the attacker
    knows the candidate set and only has to pick 1-of-3 per cell, versus
    the 6-16 meaningful functions (more with dummy inputs and complex
    functions) a reconfigurable STT LUT can realize.  The paper argues
    this is camouflaging's fundamental weakness; this module makes the
    comparison runnable. *)

val family : Sttc_backend.Backend.family
(** NAND2, NOR2 and XNOR2 at arity 2, nothing at any other: [3^M] keys
    for [M] cells by {!Sttc_backend.Backend}'s count — what a camouflaging
    attacker knows that an STT one does not. *)

val random :
  rng:Sttc_util.Rng.t -> count:int -> Sttc_netlist.Netlist.t -> Hybrid.t
(** Camouflage [count] random eligible gates — 2-input gates whose
    function is in the candidate set — expressed as LUT slots (what both
    the PPA evaluation and the SAT attack consume).  Fewer when the
    circuit does not have enough, matching the independent-selection
    setup; raises [Invalid_argument] when it has none. *)
