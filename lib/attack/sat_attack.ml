module Netlist = Sttc_netlist.Netlist
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Hybrid = Sttc_core.Hybrid
module Encode = Sttc_sim.Encode

type solver_mode = Incremental | Scratch

type outcome =
  | Broken of {
      bitstream : (Netlist.node_id * Sttc_logic.Truth.t) list;
      queries : int;
      iterations : int;
      seconds : float;
      stats : Sat.stats;
    }
  | Exhausted of {
      iterations : int;
      seconds : float;
      reason : string;
      stats : Sat.stats;
    }

let add_stats (a : Sat.stats) (b : Sat.stats) : Sat.stats =
  {
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    learned = a.learned + b.learned;
    kept = b.kept;
    removed = a.removed + b.removed;
    restarts = a.restarts + b.restarts;
  }

(* One recycled solver arena per domain, created on first use and
   reset by every Incremental attack, which then owns it for its whole
   run.  Two attacks are never live on one domain at once (the harness
   runs its attacks in sequence or on separate pool domains), and
   [Sat.Solver.reset] restores fresh-solver semantics, statistics
   included, so recycling cannot change the recovered key or the run's
   stats.  An arena lives as long as its domain. *)
let arena = Domain.DLS.new_key Sat.Solver.create

(* The whole attack talks to the solver through one closure.
   Incremental: the domain's arena accumulates every clause of [cnf]
   (via the sync cursor) together with everything it learns, and each
   call just pulls in the new clauses; the run's stats are that
   solver's.  Scratch: every call rebuilds a throwaway solver from the
   full formula, and the run's stats sum theirs — the from-scratch
   reference that the incremental engine's keys are checked against.
   Either way the answers are exact, so both modes agree on every
   SAT/UNSAT question. *)
let make_solver mode cnf =
  match mode with
  | Incremental ->
      let s = Domain.DLS.get arena in
      Sat.Solver.reset s;
      let solve ?assumptions ?max_conflicts () =
        Sat.Solver.sync s cnf;
        Sat.Solver.solve ?assumptions ?max_conflicts s
      in
      (solve, fun () -> Sat.Solver.stats s)
  | Scratch ->
      let stats = ref Sat.zero_stats in
      let solve ?assumptions ?max_conflicts () =
        let s = Sat.Solver.of_cnf cnf in
        Fun.protect
          ~finally:(fun () -> stats := add_stats !stats (Sat.Solver.stats s))
          (fun () -> Sat.Solver.solve ?assumptions ?max_conflicts s)
      in
      (solve, fun () -> !stats)

(* Canonical key extraction: the lexicographically minimal key (in key
   declaration order, preferring 0 bits) consistent with the accumulated
   constraints, found by fixing one bit at a time under assumptions.
   After the DIP loop terminates, the consistent keys are exactly the
   functionally correct ones, a set independent of solver history — so
   Incremental and Scratch recover byte-identical bitstreams.  The
   cached model always satisfies every fixed assumption (a bit is only
   fixed to 1 when the model already agrees, or to 0 after a witnessing
   solve), which skips the solve for every bit the current model already
   has at 0 and makes the final model the canonical one. *)
let canonical_key
    (solve :
      ?assumptions:Cnf.lit list -> ?max_conflicts:int -> unit -> Sat.result)
    keys ~act =
  match solve ~assumptions:[ -act ] () with
  | Sat.Unsat | Sat.Unknown _ -> None
  | Sat.Sat m0 ->
      let model = ref m0 in
      let fixed = ref [ -act ] in
      List.iter
        (fun (_, key) ->
          Array.iter
            (fun l ->
              if not (Sat.model_value !model l) then fixed := -l :: !fixed
              else
                match solve ~assumptions:(-l :: !fixed) () with
                | Sat.Sat m ->
                    model := m;
                    fixed := -l :: !fixed
                | Sat.Unsat -> fixed := l :: !fixed
                | Sat.Unknown _ -> () (* unbudgeted: cannot happen *))
            key)
        keys;
      Some !model

(* What an attack has done so far, readable when its budget cuts it
   short. *)
type progress = {
  t0 : float;
  mutable iterations : int;
  mutable stats : unit -> Sat.stats;
}

let elapsed p = Sttc_util.Timing.now_s () -. p.t0

let exhausted p reason =
  Exhausted
    { iterations = p.iterations; seconds = elapsed p; reason; stats = p.stats () }

(* The whole attack (encoding, DIP loop, key extraction, verification)
   runs under one wall-clock budget.  The solver polls it, so even one
   long solve is cut at the deadline. *)
let budgeted ~timeout_s attack =
  let p =
    {
      t0 = Sttc_util.Timing.now_s ();
      iterations = 0;
      stats = (fun () -> Sat.zero_stats);
    }
  in
  match Sttc_util.Budget.run ~seconds:timeout_s (fun () -> attack p) with
  | Ok outcome -> outcome
  | Error `Timeout -> exhausted p "timeout"

(* The DIP loop both attacks share: each model of the miter under [act]
   is a distinguishing pattern that [learn] pins with the oracle's
   response; once none is left, [conclude] extracts the key. *)
let dip_loop p
    ~(solve :
       ?assumptions:Cnf.lit list -> ?max_conflicts:int -> unit -> Sat.result)
    ~act ~max_iterations ~max_conflicts_per_call ~learn ~conclude =
  let rec loop () =
    if p.iterations >= max_iterations then exhausted p "iteration limit"
    else
      match
        Sttc_obs.Span.with_ "sat.dip_iteration" ~cat:"attack"
          ~attrs:[ ("iteration", string_of_int (p.iterations + 1)) ]
          (fun () ->
            solve ~assumptions:[ act ] ~max_conflicts:max_conflicts_per_call ())
      with
      | Sat.Unknown _ -> exhausted p "conflict budget"
      | Sat.Unsat -> conclude ()
      | Sat.Sat model ->
          learn model;
          p.iterations <- p.iterations + 1;
          loop ()
  in
  loop ()

let run ?(max_iterations = 2000) ?(max_conflicts_per_call = 200_000)
    ?(timeout_s = 60.) ?(candidates = []) ?(mode = Incremental) hybrid =
  budgeted ~timeout_s @@ fun p ->
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  (* Copy 1 and copy 2 share inputs, have independent keys. *)
  let c1 = Encode.encode foundry in
  let c2 =
    Encode.encode ~cnf:c1.Encode.cnf ~share_inputs:c1.Encode.inputs foundry
  in
  let cnf = c1.Encode.cnf in
  Encode.restrict_keys cnf c1.Encode.keys candidates;
  Encode.restrict_keys cnf c2.Encode.keys candidates;
  (* Miter: some output differs — but only under the activation literal,
     so the DIP search (assumption [act]) and the final key extraction
     (assumption [-act]) run on the same solver and the same clauses. *)
  let diffs =
    Encode.miter cnf (List.map snd c1.Encode.outputs)
      (List.map snd c2.Encode.outputs)
  in
  let act = Cnf.fresh_var cnf in
  Cnf.add_clause cnf (-act :: diffs);
  let solve, stats = make_solver mode cnf in
  p.stats <- stats;
  (* Constrain both key copies with an observed I/O pair.  The miter's
     inputs must stay free, so each observation gets fresh circuit copies
     sharing only the key variables; the incremental solver just absorbs
     the new clauses, keeping everything it has learned. *)
  let constrain_io input_bits output_bits =
    let fresh1 = Encode.encode ~cnf ~share_keys:c1.Encode.keys foundry in
    let fresh2 =
      Encode.encode ~cnf ~share_inputs:fresh1.Encode.inputs
        ~share_keys:c2.Encode.keys foundry
    in
    Encode.pin cnf (List.map snd fresh1.Encode.inputs) input_bits;
    Encode.pin cnf (List.map snd fresh1.Encode.outputs) output_bits;
    Encode.pin cnf (List.map snd fresh2.Encode.outputs) output_bits
  in
  let input_count = List.length c1.Encode.inputs in
  dip_loop p ~solve ~act ~max_iterations ~max_conflicts_per_call
    ~learn:(fun model ->
      (* distinguishing input from the model *)
      let input_bits = Array.make input_count false in
      List.iteri
        (fun i (_, l) -> input_bits.(i) <- Sat.model_value model l)
        c1.Encode.inputs;
      constrain_io input_bits (Oracle.query oracle input_bits))
    ~conclude:(fun () ->
      (* No distinguishing input: every key consistent with the recorded
         I/O pairs is functionally correct; extract the canonical one
         under the deactivated miter. *)
      match canonical_key solve c1.Encode.keys ~act with
      | Some model ->
          Broken
            {
              bitstream = Encode.key_of_model c1.Encode.keys model;
              queries = Oracle.queries oracle;
              iterations = p.iterations;
              seconds = elapsed p;
              stats = stats ();
            }
      | None -> exhausted p "no consistent key (internal error)")

let verify_break hybrid bitstream =
  let candidate = Hybrid.program_with hybrid bitstream in
  match Sttc_sim.Equiv.check_sat (Hybrid.programmed hybrid) candidate with
  | Sttc_sim.Equiv.Equivalent -> true
  | _ -> false

let run_sequential ?(frames = 5) ?(max_conflicts_per_call = 200_000)
    ?(timeout_s = 60.) ?(candidates = []) ?(mode = Incremental) hybrid =
  budgeted ~timeout_s @@ fun p ->
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  let c1 = Encode.encode_unrolled ~frames foundry in
  let cnf = c1.Encode.u_cnf in
  let c2 =
    Encode.encode_unrolled ~cnf ~share_frame_pis:c1.Encode.frame_pis ~frames
      foundry
  in
  Encode.restrict_keys cnf c1.Encode.u_keys candidates;
  Encode.restrict_keys cnf c2.Encode.u_keys candidates;
  (* miter: some primary output differs in some frame, under [act] *)
  let diffs =
    List.concat
      (Array.to_list
         (Array.map2
            (fun pos1 pos2 ->
              Encode.miter cnf (List.map snd pos1) (List.map snd pos2))
            c1.Encode.frame_pos c2.Encode.frame_pos))
  in
  let act = Cnf.fresh_var cnf in
  (* the clause lists the XORs in reverse order, as it always has *)
  Cnf.add_clause cnf (-act :: List.rev diffs);
  let solve, stats = make_solver mode cnf in
  p.stats <- stats;
  (* pin an observed sequence into fresh unrolled copies of both keys *)
  let constrain_io pi_seq po_seq =
    let fresh1 =
      Encode.encode_unrolled ~cnf ~share_keys:c1.Encode.u_keys ~frames foundry
    in
    let fresh2 =
      Encode.encode_unrolled ~cnf ~share_keys:c2.Encode.u_keys
        ~share_frame_pis:fresh1.Encode.frame_pis ~frames foundry
    in
    List.iteri
      (fun frame pis ->
        let pos = List.nth po_seq frame in
        Encode.pin cnf (List.map snd fresh1.Encode.frame_pis.(frame)) pis;
        Encode.pin cnf (List.map snd fresh1.Encode.frame_pos.(frame)) pos;
        Encode.pin cnf (List.map snd fresh2.Encode.frame_pos.(frame)) pos)
      pi_seq
  in
  let pi_count = List.length c1.Encode.frame_pis.(0) in
  dip_loop p ~solve ~act ~max_iterations:500 ~max_conflicts_per_call
    ~learn:(fun model ->
      (* distinguishing sequence from the model *)
      let pi_seq =
        List.init frames (fun frame ->
            let bits = Array.make pi_count false in
            List.iteri
              (fun i (_, l) -> bits.(i) <- Sat.model_value model l)
              c1.Encode.frame_pis.(frame);
            bits)
      in
      constrain_io pi_seq (Oracle.query_sequence oracle pi_seq))
    ~conclude:(fun () ->
      (* no distinguishing sequence of this length remains; extract the
         canonical consistent key and verify it *)
      match canonical_key solve c1.Encode.u_keys ~act with
      | Some model ->
          let bitstream = Encode.key_of_model c1.Encode.u_keys model in
          if verify_break hybrid bitstream then
            Broken
              {
                bitstream;
                queries = Oracle.queries oracle;
                iterations = p.iterations;
                seconds = elapsed p;
                stats = stats ();
              }
          else exhausted p "sequence-length limit"
      | None -> exhausted p "no consistent key (internal error)")
