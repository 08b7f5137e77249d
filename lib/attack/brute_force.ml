module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Lognum = Sttc_util.Lognum
module Rng = Sttc_util.Rng
module Hybrid = Sttc_core.Hybrid
module Backend = Sttc_backend.Backend

type outcome =
  | Broken of {
      bitstream : (Netlist.node_id * Truth.t) list;
      candidates_tested : Lognum.t;
      seconds : float;
    }
  | Infeasible of {
      search_space : Lognum.t;
      projected_years : Lognum.t;
      tested_rate_per_s : float;
    }

(* Decompose a global candidate index into one digit per LUT. *)
let bitstream_of_index digits index =
  snd
    (List.fold_left_map
       (fun index (id, radix, decode) ->
         (Int64.div index radix, (id, decode (Int64.rem index radix))))
       index digits)

let candidate_matches ~vectors ~rng oracle hybrid bitstream =
  let candidate = Oracle.of_netlist (Hybrid.program_with hybrid bitstream) in
  let width = List.length (Oracle.input_names oracle) in
  let batches = max 1 (vectors / 64) in
  let ok = ref true in
  let b = ref 0 in
  while !ok && !b < batches do
    incr b;
    let inputs = Array.init width (fun _ -> Rng.int64 rng) in
    if Oracle.query_lanes candidate inputs <> Oracle.query_lanes oracle inputs
    then ok := false
  done;
  !ok

let run ?(max_bits = 18) ?(check_vectors = 512) ?(seed = 0xb0f)
    ?(candidates = []) hybrid =
  if max_bits < 0 || max_bits > 62 then
    invalid_arg "Brute_force.run: max_bits outside [0, 62]";
  let t0 = Sttc_util.Timing.now_s () in
  let oracle = Oracle.create hybrid in
  let rng = Rng.make seed in
  let luts = Hybrid.lut_ids hybrid in
  let foundry = Hybrid.foundry_view hybrid in
  let arity id =
    match Netlist.kind foundry id with
    | Netlist.Lut { arity; _ } -> arity
    | _ -> invalid_arg "Brute_force.run: not a LUT"
  in
  (* One digit per LUT, with radix and decoder: a listed LUT picks from
     its list, a free LUT's digit is its raw truth-table bits (a 64-row
     LUT exceeds every cap, so max_int stands in for its 2^64 radix). *)
  let digits =
    List.map
      (fun id ->
        match List.assoc_opt id candidates with
        | Some tables ->
            ( id,
              Int64.of_int (List.length tables),
              fun d -> List.nth tables (Int64.to_int d) )
        | None ->
            let rows = 1 lsl arity id in
            ( id,
              (if rows > 62 then Int64.max_int else Int64.shift_left 1L rows),
              Truth.of_bits ~arity:(arity id) ))
      luts
  in
  let space =
    List.fold_left
      (fun space (id, tables) ->
        Lognum.mul space
          (Backend.cell_keyspace (Some (Fun.const tables)) ~arity:(arity id)))
      (Backend.search_space None foundry
         (List.filter (fun id -> not (List.mem_assoc id candidates)) luts))
      candidates
  in
  (* the exact number of candidates (0 for an empty list), when it is at
     most 2^max_bits *)
  let limit = Int64.shift_left 1L max_bits in
  let total =
    List.fold_left
      (fun n (_, radix, _) ->
        match n with
        | Some n when radix = 0L || n <= Int64.div limit radix ->
            Some (Int64.mul n radix)
        | _ -> None)
      (Some 1L) digits
  in
  match total with
  | None ->
      (* measure the candidate-testing rate on a small prefix *)
      let sample = 64 in
      let t1 = Sttc_util.Timing.now_s () in
      for i = 0 to sample - 1 do
        ignore
          (candidate_matches ~vectors:64 ~rng oracle hybrid
             (bitstream_of_index digits (Int64.of_int i)))
      done;
      let dt = Sttc_util.Timing.now_s () -. t1 in
      let rate = if dt <= 0. then 1e6 else float_of_int sample /. dt in
      Infeasible
        {
          search_space = space;
          projected_years =
            Lognum.seconds_to_years (Lognum.div space (Lognum.of_float rate));
          tested_rate_per_s = rate;
        }
  | Some total ->
      let rec search i =
        Sttc_util.Budget.check ();
        if i >= total then
          invalid_arg "Brute_force.run: no candidate is the key";
        let bitstream = bitstream_of_index digits i in
        if
          candidate_matches ~vectors:check_vectors ~rng oracle hybrid bitstream
          && Sat_attack.verify_break hybrid bitstream
        then
          Broken
            {
              bitstream;
              candidates_tested =
                Lognum.of_float (Int64.to_float (Int64.add i 1L));
              seconds = Sttc_util.Timing.now_s () -. t0;
            }
        else search (Int64.add i 1L)
      in
      search 0L
