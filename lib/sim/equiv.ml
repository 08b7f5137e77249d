module Netlist = Sttc_netlist.Netlist
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Rng = Sttc_util.Rng

type failure = {
  witness : (string * bool) list;
  signal : string;
}

type result = Equivalent | Different of failure | Inconclusive of string

(* ---------- interface pairing ---------- *)

(* Where each of [a]'s primary inputs, primary outputs and flip-flops
   sits in [b]: the index of the same-named item in [Netlist.pis b],
   [Netlist.outputs b] and [Netlist.dffs b].  Every engine pairs the two
   netlists through this, never by position. *)
type pairing = { pis : int array; pos : int array; dffs : int array }

let pair a b =
  (* for each name of [xs], its position in [ys] (names are unique in a
     netlist); None unless the two hold the same names *)
  let positions xs ys =
    let sort names = List.sort String.compare (Array.to_list names) in
    if sort xs <> sort ys then None
    else begin
      let at = Hashtbl.create (Array.length ys) in
      Array.iteri (fun i n -> Hashtbl.replace at n i) ys;
      Some (Array.map (Hashtbl.find at) xs)
    end
  in
  let names nl ids = Array.of_list (List.map (Netlist.name nl) ids) in
  let outs nl = Array.map fst (Netlist.outputs nl) in
  match
    ( positions (names a (Netlist.pis a)) (names b (Netlist.pis b)),
      positions (names a (Netlist.dffs a)) (names b (Netlist.dffs b)) )
  with
  | Some pis, Some dffs -> (
      match positions (outs a) (outs b) with
      | Some pos -> Ok { pis; pos; dffs }
      | None -> Error "primary output sets differ")
  | _ -> Error "primary input / state spaces differ"

(* [b]'s values in [a]'s order, and [a]'s values in [b]'s order *)
let gather index vb = Array.map (fun j -> vb.(j)) index

let scatter index va =
  let vb = Array.make (Array.length va) 0L in
  Array.iteri (fun i j -> vb.(j) <- va.(i)) index;
  vb

(* ---------- random simulation ---------- *)

let check_random ?(vectors = 4096) ~seed a b =
  match pair a b with
  | Error m -> Inconclusive m
  | Ok p -> (
      match (Simulator.create a, Simulator.create b) with
      | exception Invalid_argument m -> Inconclusive m
      | sim_a, sim_b ->
          let rng = Rng.make seed in
          let pis_a = Array.of_list (Netlist.pis a) in
          let pi_names = Array.map (Netlist.name a) pis_a in
          let dffs_a = Array.of_list (Netlist.dffs a) in
          let dff_names = Array.map (Netlist.name a) dffs_a in
          let out_names = Array.map fst (Netlist.outputs a) in
          let batches = max 1 ((vectors + 63) / 64) in
          let failure = ref None in
          (let batch = ref 0 in
           while !failure = None && !batch < batches do
             incr batch;
             let pi_lanes =
               Array.map (fun _ -> Rng.int64 rng) pis_a
             in
             let st_lanes = Array.map (fun _ -> Rng.int64 rng) dffs_a in
             Simulator.set_state sim_a st_lanes;
             Simulator.set_state sim_b (scatter p.dffs st_lanes);
             (* outputs and next-state functions from one step each, read
                back in [a]'s order *)
             let outs_a = Simulator.step sim_a pi_lanes in
             let outs_b =
               gather p.pos (Simulator.step sim_b (scatter p.pis pi_lanes))
             in
             let next_a = Simulator.state sim_a in
             let next_b = gather p.dffs (Simulator.state sim_b) in
             let report signal diff =
               (* extract the first differing lane as a witness *)
               let lane =
                 let rec find l =
                   if Int64.logand (Int64.shift_right_logical diff l) 1L = 1L
                   then l
                   else find (l + 1)
                 in
                 find 0
               in
               let bit v =
                 Int64.logand (Int64.shift_right_logical v lane) 1L = 1L
               in
               let witness =
                 Array.to_list
                   (Array.mapi (fun i n -> (n, bit pi_lanes.(i))) pi_names)
                 @ Array.to_list
                     (Array.mapi (fun i n -> (n, bit st_lanes.(i))) dff_names)
               in
               failure := Some { witness; signal }
             in
             let compare names va vb =
               Array.iteri
                 (fun i name ->
                   if !failure = None then begin
                     let diff = Int64.logxor va.(i) vb.(i) in
                     if diff <> 0L then report name diff
                   end)
                 names
             in
             compare out_names outs_a outs_b;
             compare dff_names next_a next_b
           done);
          (match !failure with
          | Some f -> Different f
          | None -> Equivalent))

(* ---------- SAT miter ---------- *)

let check_sat a b =
  match pair a b with
  | Error m -> Inconclusive m
  | Ok p -> (
      (* [b] takes the first variables, [a] reuses its input literals:
         the order the formula has always had (the two encodings were
         the scrutinee of a [match] with an exception case, which OCaml
         evaluates right to left) *)
      let cb = Encode.encode b in
      let cnf = cb.Encode.cnf in
      let ca = Encode.encode ~cnf ~share_inputs:cb.Encode.inputs a in
      let unprogrammed nl id =
        Inconclusive ("Equiv.check_sat: unprogrammed LUT " ^ Netlist.name nl id)
      in
      match (cb.Encode.keys, ca.Encode.keys) with
      | (id, _) :: _, _ -> unprogrammed b id
      | [], (id, _) :: _ -> unprogrammed a id
      | [], [] ->
          (* both output lists are POs then flip-flop D inputs; [lits_b]
             is [b]'s in [a]'s order *)
          let n_pos = Array.length p.pos in
          let lits_a = Array.of_list (List.map snd ca.Encode.outputs) in
          let lits_b =
            gather
              (Array.append p.pos (Array.map (( + ) n_pos) p.dffs))
              (Array.of_list (List.map snd cb.Encode.outputs))
          in
          let slice lits lo hi = Array.to_list (Array.sub lits lo (hi - lo)) in
          let n = Array.length lits_a in
          (* The flip-flop XORs take their variables before the PO XORs,
             while the clause lists the PO diffs first: the order the
             formula has always had (it was built as [pos @ ffs], and
             OCaml evaluates the right operand of [@] first).  Changing
             either order changes the solver's work. *)
          let ff_diffs =
            Encode.miter cnf (slice lits_a n_pos n) (slice lits_b n_pos n)
          in
          let po_diffs =
            Encode.miter cnf (slice lits_a 0 n_pos) (slice lits_b 0 n_pos)
          in
          let diffs =
            List.combine (List.map fst ca.Encode.outputs) (po_diffs @ ff_diffs)
          in
          Cnf.add_clause cnf (List.map snd diffs);
          let solver = Sat.Solver.of_cnf cnf in
          (match Sat.Solver.solve solver with
          | Sat.Unknown _ -> Inconclusive "SAT conflict budget exhausted"
          | Sat.Unsat -> Equivalent
          | Sat.Sat model ->
              let witness =
                List.map
                  (fun (name, v) -> (name, Sat.model_value model v))
                  cb.Encode.inputs
                |> List.sort (fun (x, _) (y, _) -> String.compare x y)
              in
              let signal =
                match
                  List.find_opt
                    (fun (_, d) -> Sat.model_value model d)
                    diffs
                with
                | Some (name, _) -> name
                | None -> "?"
              in
              Different { witness; signal }))
