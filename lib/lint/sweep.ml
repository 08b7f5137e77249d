(* SAT sweeping: use the semantic pack's own machinery (sampling +
   dual-rail prover) to *remove* what SEM001/SEM004 would report, instead
   of merely reporting it.  Proved-constant nets become [Const] nodes and
   proved-duplicate nets become buffers onto their earliest equivalent,
   then [Opt.optimize] folds the debris away; repeat to a fixpoint. *)

module Netlist = Sttc_netlist.Netlist
module Query = Sttc_netlist.Query
module Opt = Sttc_netlist.Opt
module Ternary = Sttc_logic.Ternary

type stats = { rounds : int; constants : int; duplicates : int; dead : int }

let max_pairs = 256

(* Nodes eligible for rewriting: plain gates and programmed LUTs.  PIs,
   DFFs and existing constants stay; unconfigured LUTs make the whole
   cone tainted and are filtered by [Dataflow.tainted] anyway. *)
let eligible nl id =
  match Netlist.kind nl id with
  | Netlist.Gate _ | Netlist.Lut { config = Some _; _ } -> true
  | Netlist.Pi | Netlist.Const _ | Netlist.Lut { config = None; _ }
  | Netlist.Dff ->
      false

(* One analyze-and-rewrite pass.  Returns [None] when nothing was proved
   (the netlist is SEM001/SEM004-silent at this budget). *)
let pass ~budget ~seed nl =
  let dt = Dataflow.compute ~seed nl in
  let prover = lazy (Prover.create ~budget nl) in
  let n = Netlist.node_count nl in
  (* Proved constants: propagation alone, or a sampling-stable candidate
     confirmed by refuting the complement value. *)
  let const_of = Array.make n None in
  for id = 0 to n - 1 do
    if eligible nl id && not (Dataflow.tainted dt id) then
      match Dataflow.const dt id with
      | Ternary.Zero -> const_of.(id) <- Some false
      | Ternary.One -> const_of.(id) <- Some true
      | Ternary.X -> (
          match Dataflow.stuck dt id with
          | Ternary.X -> ()
          | (Ternary.Zero | Ternary.One) as v ->
              let other =
                if v = Ternary.One then Ternary.Zero else Ternary.One
              in
              let p = Lazy.force prover in
              Prover.set_label p "sweep";
              if Prover.value_reachable p id other = Prover.Refuted then
                const_of.(id) <- Some (v = Ternary.One))
  done;
  (* Proved duplicates: bucket by (sample signature, support hash) — both
     must agree for equivalence to be possible — then confirm each later
     node against the bucket's earliest member.  Earliest-id targets keep
     the buffer edges acyclic (builder ids are topologically ordered). *)
  let summary = Dataflow.summary dt in
  let buckets = Hashtbl.create 64 in
  for id = 0 to n - 1 do
    if
      eligible nl id
      && (not (Dataflow.tainted dt id))
      && const_of.(id) = None
      && Netlist.kind nl id <> Netlist.Gate Sttc_logic.Gate_fn.Buf
    then begin
      let key = (Dataflow.signature dt id, summary.Query.support_hash.(id)) in
      let prev = try Hashtbl.find buckets key with Not_found -> [] in
      Hashtbl.replace buckets key (id :: prev)
    end
  done;
  (* Provably dead logic (SEM002's liveness proof: no value change can
     ever reach a primary output, across any number of clock cycles):
     anything goes there, so pin it to 0 and let [Opt] erase the cone.
     Dead flip-flops are included — [Transform.sweep] keeps registers
     whose outputs feed live-looking but masked logic. *)
  let is_po = Array.make n false in
  List.iter (fun id -> is_po.(id) <- true) (Netlist.pos nl);
  let dead = ref 0 in
  let dead_of = Array.make n false in
  for id = 0 to n - 1 do
    let can_rewrite =
      match Netlist.kind nl id with
      | Netlist.Gate _ | Netlist.Lut { config = Some _; _ } | Netlist.Dff ->
          true
      | Netlist.Pi | Netlist.Const _ | Netlist.Lut { config = None; _ } ->
          false
    in
    if can_rewrite && (not (Dataflow.live dt id)) && not is_po.(id) then begin
      dead_of.(id) <- true;
      incr dead
    end
  done;
  (* All pairs within a bucket, earliest member first: a signature
     collision can pull an unrelated node into the bucket, so testing
     only against the first member could shadow a genuine duplicate
     deeper in.  Matched nodes stop being representatives, which keeps
     the work near-linear on honest buckets. *)
  let dup_of = Array.make n None in
  let pairs = ref 0 in
  Hashtbl.iter
    (fun _ members ->
      let reps = ref [] in
      List.iter
        (fun id ->
          let rec try_reps = function
            | [] -> reps := !reps @ [ id ]
            | rep :: rest ->
                if !pairs >= max_pairs then reps := !reps @ [ id ]
                else begin
                  incr pairs;
                  let p = Lazy.force prover in
                  Prover.set_label p "sweep";
                  if Prover.equivalent p rep id = Prover.Holds then
                    dup_of.(id) <- Some rep
                  else try_reps rest
                end
          in
          try_reps !reps)
        (List.rev members))
    buckets;
  let constants = Array.fold_left (fun a c -> if c = None then a else a + 1) 0 const_of in
  let duplicates = Array.fold_left (fun a d -> if d = None then a else a + 1) 0 dup_of in
  if constants = 0 && duplicates = 0 && !dead = 0 then None
  else
    let rewritten =
      Netlist.with_kinds nl (fun id kind fanins ->
          if dead_of.(id) then (Netlist.Const false, [||])
          else
            match const_of.(id) with
            | Some b -> (Netlist.Const b, [||])
            | None -> (
                match dup_of.(id) with
                | Some rep -> (Netlist.Gate Sttc_logic.Gate_fn.Buf, [| rep |])
                | None -> (kind, fanins)))
    in
    Some (Opt.optimize rewritten, constants, duplicates, !dead)

let run ?(budget = 50_000) ?(seed = 0) ?(max_rounds = 4) nl =
  let rec go nl round constants duplicates dead =
    Sttc_util.Budget.check ();
    if round >= max_rounds then (nl, { rounds = round; constants; duplicates; dead })
    else
      match pass ~budget ~seed nl with
      | None -> (nl, { rounds = round; constants; duplicates; dead })
      | Some (nl', c, dup, dd) ->
          go nl' (round + 1) (constants + c) (duplicates + dup) (dead + dd)
  in
  go (Opt.optimize nl) 0 0 0 0
