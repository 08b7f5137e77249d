module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Gate_fn = Sttc_logic.Gate_fn
module Rng = Sttc_util.Rng
module Hybrid = Sttc_core.Hybrid

type result = {
  recovered : bool;
  agreement : float;
  rounds_used : int;
  oracle_queries : int;
  seconds : float;
  bitstream : (Netlist.node_id * Truth.t) list;
}

let run ?(rounds = 12) ?(probes = 1024) ?(seed = 0x9e55) hybrid =
  let t0 = Sttc_util.Timing.now_s () in
  let foundry = Hybrid.foundry_view hybrid in
  let oracle = Oracle.create hybrid in
  let rng = Rng.make seed in
  let luts = Hybrid.lut_ids hybrid in
  let pis = Array.of_list (Netlist.pis foundry) in
  let dffs = Array.of_list (Netlist.dffs foundry) in
  (* Probe set: random input lanes and the oracle's responses. *)
  let batches = max 1 (probes / 64) in
  let probe_inputs =
    Array.init batches (fun _ ->
        Array.init
          (Array.length pis + Array.length dffs)
          (fun _ -> Rng.int64 rng))
  in
  let probe_outputs = Array.map (fun b -> Oracle.query_lanes oracle b) probe_inputs in
  let arity_of id =
    match Netlist.kind foundry id with
    | Netlist.Lut { arity; _ } -> arity
    | _ -> assert false
  in
  let candidates id =
    let a = arity_of id in
    let meaningful =
      if a = 1 then [ Gate_fn.Buf; Gate_fn.Not ] else Gate_fn.all_of_arity a
    in
    List.map Gate_fn.truth meaningful
    @ List.init 4 (fun _ -> Truth.random rng ~arity:a)
  in
  (* current hypothesis *)
  let hypo = Hashtbl.create 16 in
  List.iter
    (fun id -> Hashtbl.replace hypo id (List.hd (candidates id)))
    luts;
  let bitstream_of_hypo () =
    List.map (fun id -> (id, Hashtbl.find hypo id)) luts
  in
  let score bitstream =
    (* lanes of agreement across the probe set *)
    let candidate = Oracle.of_netlist (Hybrid.program_with hybrid bitstream) in
    let agree = ref 0 and total = ref 0 in
    Array.iteri
      (fun b inputs ->
        Array.iteri
          (fun i v ->
            let diff = Int64.logxor v probe_outputs.(b).(i) in
            agree := !agree + (64 - Truth.popcount64 diff);
            total := !total + 64)
          (Oracle.query_lanes candidate inputs))
      probe_inputs;
    if !total = 0 then 0. else float_of_int !agree /. float_of_int !total
  in
  let best_round = ref (score (bitstream_of_hypo ())) in
  let rounds_used = ref 0 in
  (try
     for _round = 1 to rounds do
       Sttc_util.Budget.check ();
       incr rounds_used;
       let improved = ref false in
       List.iter
         (fun id ->
           let current = Hashtbl.find hypo id in
           let best = ref current and best_score = ref !best_round in
           List.iter
             (fun cand ->
               if not (Truth.equal cand !best) then begin
                 Hashtbl.replace hypo id cand;
                 let s = score (bitstream_of_hypo ()) in
                 if s > !best_score then begin
                   best := cand;
                   best_score := s
                 end
               end)
             (candidates id);
           Hashtbl.replace hypo id !best;
           if !best_score > !best_round then begin
             best_round := !best_score;
             improved := true
           end
         )
         luts;
       if (not !improved) || !best_round >= 1.0 then raise Exit
     done
   with Exit -> ());
  let bitstream = bitstream_of_hypo () in
  let recovered =
    !best_round >= 1.0 && Sat_attack.verify_break hybrid bitstream
  in
  {
    recovered;
    agreement = !best_round;
    rounds_used = !rounds_used;
    oracle_queries = Oracle.queries oracle;
    seconds = Sttc_util.Timing.now_s () -. t0;
    bitstream;
  }
