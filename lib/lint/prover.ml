module Netlist = Sttc_netlist.Netlist
module Cnf = Sttc_logic.Cnf
module Sat = Sttc_logic.Sat
module Truth = Sttc_logic.Truth
module Ternary = Sttc_logic.Ternary
module Gate_fn = Sttc_logic.Gate_fn

type answer = Holds | Refuted | Cutoff

(* Dual-rail ternary encoding: every net [n] carries two literals
   [(t, f)] with the invariant not-both — (1,0) is known 1, (0,1) is
   known 0, (0,0) is X.  Sources (PIs, flip-flop outputs) are total
   (t XOR f): the scan-capable attacker of Section IV-A controls them.
   An unconfigured LUT's rails are left free under the not-both clause
   only, so one encoding answers every per-query stance by assumption:
   force (0,0) to model "this missing gate is unresolved" (the ternary
   attack semantics of the testing attack), force a known value to probe
   it, or leave the rails free to quantify over every possible content.
   Free rails over-approximate the keyed behaviours, which keeps every
   UNSAT-based claim sound.

   Copy B duplicates only the logic combinationally downstream of a
   missing gate and shares everything else, giving the justify/propagate
   miter of Eq. 1 for the price of the affected cone. *)

type rails = { t : Cnf.lit; f : Cnf.lit }

type t = {
  nl : Netlist.t;
  cnf : Cnf.t;
  solver : Sat.Solver.t;
  budget : int;
  a : rails array; (* copy A, indexed by node id *)
  b : rails array; (* copy B; shares A's literals off the LUT cones *)
  luts : Netlist.node_id list; (* unconfigured LUTs, id order *)
  any_diff : Cnf.lit option;
      (* some observation point differs (known, opposite) between copies *)
  mutable label : string;
  mutable queries : int;
  mutable cutoffs : int;
  mutable conflicts : int;
  mutable seconds : float;
}

let and_lits cnf = function
  | [] -> invalid_arg "Prover.and_lits: empty"
  | [ l ] -> l
  | lits ->
      let v = Cnf.fresh_var cnf in
      Cnf.encode_and cnf v lits;
      v

let or_lits cnf = function
  | [] -> invalid_arg "Prover.or_lits: empty"
  | [ l ] -> l
  | lits ->
      let v = Cnf.fresh_var cnf in
      Cnf.encode_or cnf v lits;
      v

(* rails of one gate output from its fanin rails *)
let encode_gate cnf fn (ins : rails array) =
  let ts = Array.to_list (Array.map (fun r -> r.t) ins)
  and fs = Array.to_list (Array.map (fun r -> r.f) ins) in
  let xor_pair x y =
    {
      t = or_lits cnf [ and_lits cnf [ x.t; y.f ]; and_lits cnf [ x.f; y.t ] ];
      f = or_lits cnf [ and_lits cnf [ x.t; y.t ]; and_lits cnf [ x.f; y.f ] ];
    }
  in
  match fn with
  | Gate_fn.Buf -> ins.(0)
  | Gate_fn.Not -> { t = ins.(0).f; f = ins.(0).t }
  | Gate_fn.And _ -> { t = and_lits cnf ts; f = or_lits cnf fs }
  | Gate_fn.Nand _ -> { t = or_lits cnf fs; f = and_lits cnf ts }
  | Gate_fn.Or _ -> { t = or_lits cnf ts; f = and_lits cnf fs }
  | Gate_fn.Nor _ -> { t = and_lits cnf fs; f = or_lits cnf ts }
  | Gate_fn.Xor _ ->
      Array.fold_left xor_pair ins.(0) (Array.sub ins 1 (Array.length ins - 1))
  | Gate_fn.Xnor _ ->
      let r =
        Array.fold_left xor_pair ins.(0)
          (Array.sub ins 1 (Array.length ins - 1))
      in
      { t = r.f; f = r.t }

(* rails of a configured LUT: the three-valued table semantics of
   [Ternary.eval_truth] — known v iff every input-compatible row agrees
   on v *)
let encode_lut cnf config arity (ins : rails array) ~true_lit =
  let rows = 1 lsl arity in
  let compat = Array.make rows 0 in
  for r = 0 to rows - 1 do
    let lits = ref [] in
    for k = 0 to arity - 1 do
      (* compatible with bit b at input k: the opposite rail is low *)
      if (r lsr k) land 1 = 1 then lits := -ins.(k).f :: !lits
      else lits := -ins.(k).t :: !lits
    done;
    compat.(r) <- and_lits cnf !lits
  done;
  let off = ref [] and on_ = ref [] in
  for r = 0 to rows - 1 do
    if Truth.row config r then on_ := -compat.(r) :: !on_
    else off := -compat.(r) :: !off
  done;
  {
    t = (match !off with [] -> true_lit | ls -> and_lits cnf ls);
    f = (match !on_ with [] -> true_lit | ls -> and_lits cnf ls);
  }

let free_rails cnf ~total =
  let t = Cnf.fresh_var cnf in
  let f = Cnf.fresh_var cnf in
  Cnf.add_clause cnf [ -t; -f ];
  if total then Cnf.add_clause cnf [ t; f ];
  { t; f }

let create ?(budget = 50_000) nl =
  Netlist.warm nl;
  let n = Netlist.node_count nl in
  let order = Netlist.topo_order nl in
  let cnf = Cnf.create () in
  let true_lit = Cnf.fresh_var cnf in
  Cnf.add_clause cnf [ true_lit ];
  (* copy B differs only combinationally downstream of a missing gate *)
  let downstream = Array.make n false in
  Array.iter
    (fun id ->
      match Netlist.kind nl id with
      | Netlist.Lut { config = None; _ } -> downstream.(id) <- true
      | k when Netlist.is_combinational k ->
          downstream.(id) <-
            Array.exists (fun s -> downstream.(s)) (Netlist.fanins nl id)
      | _ -> ())
    order;
  let a = Array.make n { t = true_lit; f = true_lit } in
  let b = Array.make n { t = true_lit; f = true_lit } in
  let luts = ref [] in
  let encode_node which rails_of id =
    let node = Netlist.node nl id in
    match node.Netlist.kind with
    | Netlist.Pi | Netlist.Dff -> free_rails cnf ~total:true
    | Netlist.Const v ->
        if v then { t = true_lit; f = -true_lit }
        else { t = -true_lit; f = true_lit }
    | Netlist.Gate fn ->
        encode_gate cnf fn (Array.map rails_of node.Netlist.fanins)
    | Netlist.Lut { config = Some c; arity } ->
        encode_lut cnf c arity (Array.map rails_of node.Netlist.fanins) ~true_lit
    | Netlist.Lut { config = None; _ } ->
        if which = `A then luts := id :: !luts;
        free_rails cnf ~total:false
  in
  Array.iter
    (fun id -> a.(id) <- encode_node `A (fun s -> a.(s)) id)
    order;
  Array.iter
    (fun id ->
      if downstream.(id) then
        b.(id) <- encode_node `B (fun s -> b.(s)) id
      else b.(id) <- a.(id))
    order;
  (* per-observation-point difference literals, only where the copies
     can actually diverge *)
  let obs = ref [] in
  List.iter (fun id -> obs := id :: !obs) (Netlist.pos nl);
  List.iter
    (fun ff -> obs := (Netlist.fanins nl ff).(0) :: !obs)
    (Netlist.dffs nl);
  let diffs =
    List.filter_map
      (fun o ->
        if not downstream.(o) then None
        else
          Some
            (or_lits cnf
               [
                 and_lits cnf [ a.(o).t; b.(o).f ];
                 and_lits cnf [ a.(o).f; b.(o).t ];
               ]))
      (List.sort_uniq Int.compare !obs)
  in
  let any_diff = match diffs with [] -> None | ds -> Some (or_lits cnf ds) in
  let solver = Sat.Solver.of_cnf cnf in
  {
    nl;
    cnf;
    solver;
    budget;
    a;
    b;
    luts = List.rev !luts;
    any_diff;
    label = "sem";
    queries = 0;
    cutoffs = 0;
    conflicts = 0;
    seconds = 0.;
  }

let set_label t l = t.label <- l

let solve t assumptions =
  Sat.Solver.sync t.solver t.cnf;
  let before = (Sat.Solver.stats t.solver).Sat.conflicts in
  let result, dt =
    Sttc_util.Timing.time (fun () ->
        Sat.Solver.solve ~assumptions ~max_conflicts:t.budget t.solver)
  in
  let dc = (Sat.Solver.stats t.solver).Sat.conflicts - before in
  t.queries <- t.queries + 1;
  t.conflicts <- t.conflicts + dc;
  t.seconds <- t.seconds +. dt;
  Sttc_obs.Metrics.(
    incr "lint.sem.queries";
    observe (Printf.sprintf "lint.sem.%s.solver_seconds" t.label) dt;
    observe
      (Printf.sprintf "lint.sem.%s.solver_conflicts" t.label)
      (float_of_int dc));
  match result with
  | Sat.Sat _ -> Holds
  | Sat.Unsat -> Refuted
  | Sat.Unknown _ ->
      t.cutoffs <- t.cutoffs + 1;
      Sttc_obs.Metrics.incr "lint.sem.cutoffs";
      Cutoff

(* force X on the given missing gates, in both copies *)
let x_context t except =
  List.concat_map
    (fun l ->
      if List.mem l except then []
      else
        let base = [ -t.a.(l).t; -t.a.(l).f ] in
        if t.b.(l).t = t.a.(l).t then base
        else base @ [ -t.b.(l).t; -t.b.(l).f ])
    t.luts

let assume_value rails = function
  | Ternary.One -> [ rails.t ]
  | Ternary.Zero -> [ rails.f ]
  | Ternary.X -> [ -rails.t; -rails.f ]

(* can the net take this three-valued value, for some input, state and
   missing-gate behaviour? *)
let value_reachable t id v = solve t (assume_value t.a.(id) v)

(* row justification at a LUT's fanins with every missing gate X:
   [exact] requires the fanins known and equal to the row; otherwise
   mere three-valued compatibility is enough *)
let justify_row t lut ~row ~exact =
  let fanins = Netlist.fanins t.nl lut in
  let per_bit k =
    let r = t.a.(fanins.(k)) in
    if (row lsr k) land 1 = 1 then if exact then r.t else -r.f
    else if exact then r.f
    else -r.t
  in
  let just = List.init (Array.length fanins) per_bit in
  solve t (just @ x_context t [])

(* is there an input/state pattern where forcing the LUT's output low
   vs high produces a known difference at an observation point?
   [others] chooses the stance on the other missing gates: [`X] is the
   testing-attack semantics (unresolved gates block), [`Free] quantifies
   over all their behaviours (UNSAT then proves the LUT's configuration
   can never influence an observation point at all). *)
let toggle_observable t lut ~others =
  match t.any_diff with
  | None -> Refuted
  | Some d ->
      let target =
        [ t.a.(lut).f; t.b.(lut).t ]
        (* not-both clauses make f => not t on free rails *)
      in
      let context =
        match others with `X -> x_context t [ lut ] | `Free -> []
      in
      solve t ((d :: target) @ context)

(* activation-literal scoped equivalence of two nets in copy A: clauses
   added for the query are guarded by a fresh activation literal and
   retired with a unit clause afterwards, so the solver's learned
   clauses stay valid across queries *)
let equivalent t x y =
  let act = Cnf.fresh_var t.cnf in
  let m1 = and_lits t.cnf [ t.a.(x).t; t.a.(y).f ] in
  let m2 = and_lits t.cnf [ t.a.(x).f; t.a.(y).t ] in
  Cnf.add_clause t.cnf [ -act; m1; m2 ];
  let r = solve t [ act ] in
  Cnf.add_clause t.cnf [ -act ];
  match r with Holds -> Refuted | Refuted -> Holds | Cutoff -> Cutoff

let cutoffs t = t.cutoffs
