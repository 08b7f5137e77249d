module Netlist = Sttc_netlist.Netlist
module Transform = Sttc_netlist.Transform
module Ternary = Sttc_logic.Ternary
module Truth = Sttc_logic.Truth
module Span = Sttc_obs.Span

type view = {
  netlist : Netlist.t;
  luts : Netlist.node_id list;
  configs : (Netlist.node_id * Truth.t) list;
  budget : int;
}

let default_budget = 50_000

let view ?luts ?(configs = []) ?(budget = default_budget) netlist =
  let luts =
    match luts with
    | Some ls -> ls
    | None ->
        List.filter
          (fun id ->
            match Netlist.kind netlist id with
            | Netlist.Lut { config = None; _ } -> true
            | _ -> false)
          (Netlist.luts netlist)
  in
  { netlist; luts; configs; budget }

let rules : Structural.rule list =
  [
    {
      id = "SEM001";
      alias = "const-net";
      severity = Diagnostic.Warning;
      doc = "net provably constant over every input, state and key choice";
    };
    {
      id = "SEM002";
      alias = "dead-logic";
      severity = Diagnostic.Warning;
      doc =
        "constant-masked logic: no value change can reach an observation \
         point despite a structural path";
    };
    {
      id = "SEM003";
      alias = "key-collapse";
      severity = Diagnostic.Error;
      doc =
        "missing-gate configuration proven to influence no observation \
         point (its key bits are free: keyspace collapse)";
    };
    {
      id = "SEM004";
      alias = "redundant-node";
      severity = Diagnostic.Warning;
      doc = "two nets SAT-proved equal on every input and state";
    };
    {
      id = "SEM005";
      alias = "const-lut-input";
      severity = Diagnostic.Warning;
      doc =
        "unconfigured LUT fed by a provably-constant net: the effective \
         keyspace halves per constant input";
    };
    {
      id = "SEM006";
      alias = "sem-budget";
      severity = Diagnostic.Warning;
      doc =
        "semantic queries exhausted the conflict budget: findings are \
         incomplete, never wrong";
    };
    {
      id = "SEM007";
      alias = "easy-test-lut";
      severity = Diagnostic.Warning;
      doc =
        "SCOAP: every LUT input independently controllable and the output \
         observable with other missing gates at X (Eq. 1 attack surface)";
    };
    {
      id = "SEM008";
      alias = "independent-testability";
      severity = Diagnostic.Error;
      doc =
        "Eq. 1 prover: each missing-gate row justifiable and its toggle \
         propagatable with the other gates unresolved - the independent \
         testing attack reads the design back";
    };
  ]

let diag id node detail =
  let r = List.find (fun (r : Structural.rule) -> r.Structural.id = id) rules in
  Diagnostic.make ~rule:r.Structural.id ~alias:r.Structural.alias
    ~severity:r.Structural.severity ?node detail

let warn id node detail =
  let r = List.find (fun (r : Structural.rule) -> r.Structural.id = id) rules in
  Diagnostic.make ~rule:r.Structural.id ~alias:r.Structural.alias
    ~severity:Diagnostic.Warning ?node detail

(* ---------- SEM008: the Eq. 1 closure ---------- *)

(* One round of the independent-testability check on [nl]: a missing gate
   is resolvable iff every table row either has an exact justification
   pattern (with all other missing gates held at X) or is not even
   three-valued reachable, and forcing its output low-vs-high produces a
   known difference at an observation point under the same X stance.
   This is the static mirror of the per-row testing attack in
   [Sttc_attack.Tt_attack]. *)
type row_status = Resolvable of int (* patterns needed *) | Stuck | Unknown_rows

let check_lut prover nl l =
  let arity =
    match Netlist.kind nl l with
    | Netlist.Lut { arity; _ } -> arity
    | _ -> invalid_arg "Semantic_rules.check_lut: not a LUT"
  in
  let rows = 1 lsl arity in
  let npat = ref 0 in
  let state = ref `Ok in
  for r = 0 to rows - 1 do
    if !state = `Ok then
      match Prover.justify_row prover l ~row:r ~exact:true with
      | Prover.Holds -> incr npat
      | Prover.Cutoff -> state := `Unknown
      | Prover.Refuted -> (
          (* no exact pattern; the row is harmless only if unreachable *)
          match Prover.justify_row prover l ~row:r ~exact:false with
          | Prover.Refuted -> ()
          | Prover.Holds -> state := `Stuck
          | Prover.Cutoff -> state := `Unknown)
  done;
  match !state with
  | `Stuck -> Stuck
  | `Unknown -> Unknown_rows
  | `Ok -> (
      match Prover.toggle_observable prover l ~others:`X with
      | Prover.Holds -> Resolvable !npat
      | Prover.Refuted -> Stuck
      | Prover.Cutoff -> Unknown_rows)

(* Closure: once a round's resolvable gates are known, substitute their
   true configurations (when the caller supplied the bitstream) and
   retry the rest - exactly how the testing attack peels dependent
   selections apart when one gate happens to be independently testable. *)
let run_eq1 view dt first_prover cutoffs =
  let total_luts = List.length view.luts in
  if total_luts = 0 then []
  else begin
    let clocks_of l npat =
      let d = Dataflow.seq_depth dt l in
      let d = if d = max_int then 0 else d in
      npat * (d + 1)
    in
    let resolved = Hashtbl.create 16 in
    (* (lut, npat, clocks, round) in resolution order *)
    let order = ref [] in
    (* the first round reuses the run's shared prover, whose cutoffs the
       driver counts itself; later rounds own their prover *)
    let rec round ~n ~own nl prover pending =
      Prover.set_label prover "eq1";
      let newly =
        List.filter_map
          (fun l ->
            match check_lut prover nl l with
            | Resolvable npat -> Some (l, npat)
            | Stuck | Unknown_rows -> None)
          pending
      in
      if own then cutoffs := !cutoffs + Prover.cutoffs prover;
      List.iter
        (fun (l, npat) ->
          Hashtbl.replace resolved l ();
          order := (l, npat, clocks_of l npat, n) :: !order)
        newly;
      let pending =
        List.filter (fun l -> not (Hashtbl.mem resolved l)) pending
      in
      if newly = [] || pending = [] then ()
      else
        (* substitute what the attacker just learned and go again *)
        let known =
          List.filter (fun (l, _) -> Hashtbl.mem resolved l) view.configs
        in
        if List.length known < Hashtbl.length resolved then ()
          (* no bitstream for some resolved gate: cannot substitute *)
        else
          let nl' = Transform.program_luts view.netlist known in
          round ~n:(n + 1) ~own:true nl'
            (Prover.create ~budget:view.budget nl')
            pending
    in
    round ~n:1 ~own:false view.netlist first_prover view.luts;
    let order = List.rev !order in
    let round1 = List.filter (fun (_, _, _, n) -> n = 1) order in
    (* the design-level error is Eq. 1 verbatim: every missing gate
       justified and propagated in isolation, no substitution allowed.
       Gates that only fall in later closure rounds are attack intel,
       not independent-selection-grade weakness. *)
    if List.length round1 = total_luts then
      let clocks =
        List.fold_left (fun acc (_, _, c, _) -> acc + c) 0 order
      in
      [
        diag "SEM008" None
          (Printf.sprintf
             "independent testing attack succeeds: all %d missing gates \
              resolvable row-by-row in isolation; estimated test length \
              ~%d clocks (Eq. 1)"
             total_luts clocks);
      ]
    else
      List.map
        (fun (l, npat, clocks, n) ->
          warn "SEM008"
            (Some (Netlist.name view.netlist l))
            (if n = 1 then
               Printf.sprintf
                 "missing gate independently resolvable: %d test patterns, \
                  toggle observable with the others at X (~%d clocks)"
                 npat clocks
             else
               Printf.sprintf
                 "missing gate falls to the testing-attack closure in round \
                  %d once earlier gates are substituted (%d patterns, ~%d \
                  clocks)"
                 n npat clocks))
        order
  end

(* ---------- the driver ---------- *)

let run view =
  let nl = view.netlist in
  let name id = Some (Netlist.name nl id) in
  let cutoffs = ref 0 in
  Span.with_ ~cat:"lint" "lint.sem" @@ fun () ->
  let dt = lazy (Span.with_ ~cat:"lint" "lint.sem.dataflow" (fun () -> Dataflow.compute nl)) in
  let prover =
    lazy
      (Span.with_ ~cat:"lint" "lint.sem.lower" (fun () ->
           Prover.create ~budget:view.budget nl))
  in
  let finish_prover () =
    if Lazy.is_val prover then
      cutoffs := !cutoffs + Prover.cutoffs (Lazy.force prover)
  in
  (* constant nets proved either by three-valued propagation alone or by
     one SAT refutation of the opposite value; shared by SEM001/SEM005 *)
  let const_proved =
    lazy
      (let dt = Lazy.force dt in
       let proved = Hashtbl.create 32 in
       for id = 0 to Netlist.node_count nl - 1 do
         let kind = Netlist.kind nl id in
         let interesting =
           match kind with
           | Netlist.Gate _ | Netlist.Lut { config = Some _; _ } -> true
           | _ -> false
         in
         if interesting && not (Dataflow.tainted dt id) then
           match Dataflow.const dt id with
           | (Ternary.Zero | Ternary.One) as v ->
               Hashtbl.replace proved id (v, "constant propagation")
           | Ternary.X -> (
               match Dataflow.stuck dt id with
               | Ternary.X -> ()
               | v ->
                   let p = Lazy.force prover in
                   Prover.set_label p "const";
                   let opposite =
                     if Ternary.equal v Ternary.One then Ternary.Zero
                     else Ternary.One
                   in
                   (match Prover.value_reachable p id opposite with
                   | Prover.Refuted -> Hashtbl.replace proved id (v, "SAT")
                   | Prover.Holds -> ()
                   | Prover.Cutoff -> ()))
       done;
       proved)
  in
  let ds = ref [] in
  let emit d = ds := d :: !ds in
  let rule id f = Span.with_ ~cat:"lint" ("lint.sem." ^ id) f in

  rule "SEM001" (fun () ->
      Hashtbl.iter
        (fun id (v, how) ->
          emit
            (diag "SEM001" (name id)
               (Printf.sprintf "provably stuck at %s (%s)"
                  (if Ternary.equal v Ternary.One then "1" else "0")
                  how)))
        (Lazy.force const_proved));

  rule "SEM002" (fun () ->
      let dt = Lazy.force dt in
      let summary = Dataflow.summary dt in
      let is_po = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace is_po id ()) (Netlist.pos nl);
      for id = 0 to Netlist.node_count nl - 1 do
        if
          Netlist.is_combinational (Netlist.kind nl id)
          && (not (Dataflow.live dt id))
          && (not (Hashtbl.mem is_po id))
          && summary.Sttc_netlist.Query.obs_points.(id) > 0
        then
          emit
            (diag "SEM002" (name id)
               "dead logic: every path to an observation point is masked \
                by a propagated constant")
      done);

  rule "SEM003" (fun () ->
      let p = Lazy.force prover in
      Prover.set_label p "collapse";
      List.iter
        (fun l ->
          match Prover.toggle_observable p l ~others:`Free with
          | Prover.Refuted ->
              emit
                (diag "SEM003" (name l)
                   "configuration influences no primary output or flip-flop \
                    under any behaviour of the other missing gates: its key \
                    bits are free (keyspace collapse)")
          | Prover.Holds | Prover.Cutoff -> ())
        view.luts);

  rule "SEM004" (fun () ->
      let dt = Lazy.force dt in
      let summary = Dataflow.summary dt in
      let consts = Lazy.force const_proved in
      let p = Lazy.force prover in
      Prover.set_label p "equiv";
      (* bucket by sampled response + input-support hash; only pairs that
         agree on both are worth a SAT query *)
      let buckets = Hashtbl.create 64 in
      for id = 0 to Netlist.node_count nl - 1 do
        (* buffers are excluded: a BUF is equal to its source by
           definition, not by discovery, and the only ones [Opt] cannot
           collapse are primary-output aliases *)
        let eligible =
          match Netlist.kind nl id with
          | Netlist.Gate Sttc_logic.Gate_fn.Buf -> false
          | Netlist.Gate _ | Netlist.Lut { config = Some _; _ } -> true
          | _ -> false
        in
        if
          eligible
          && (not (Dataflow.tainted dt id))
          && not (Hashtbl.mem consts id)
        then begin
          let key =
            ( Dataflow.signature dt id,
              summary.Sttc_netlist.Query.support_hash.(id) )
          in
          let prev = try Hashtbl.find buckets key with Not_found -> [] in
          Hashtbl.replace buckets key (id :: prev)
        end
      done;
      let budget_pairs = ref 48 in
      Hashtbl.iter
        (fun _ members ->
          match List.rev members with
          | [] | [ _ ] -> ()
          | first :: rest ->
              List.iter
                (fun other ->
                  if !budget_pairs > 0 then begin
                    decr budget_pairs;
                    match Prover.equivalent p first other with
                    | Prover.Holds ->
                        emit
                          (diag "SEM004" (name other)
                             (Printf.sprintf
                                "SAT-proved equal to %s on every input and \
                                 state"
                                (Netlist.name nl first)))
                    | Prover.Refuted | Prover.Cutoff -> ()
                  end)
                rest)
        buckets);

  rule "SEM005" (fun () ->
      let consts = Lazy.force const_proved in
      List.iter
        (fun l ->
          let fanins = Netlist.fanins nl l in
          let n_const =
            Array.fold_left
              (fun acc s ->
                let is_const =
                  Hashtbl.mem consts s
                  ||
                  match Netlist.kind nl s with
                  | Netlist.Const _ -> true
                  | _ -> false
                in
                if is_const then acc + 1 else acc)
              0 fanins
          in
          if n_const > 0 then
            emit
              (diag "SEM005" (name l)
                 (Printf.sprintf
                    "%d of %d inputs provably constant: only 2^%d of the \
                     2^%d table rows are live (keyspace collapse)"
                    n_const (Array.length fanins)
                    (Array.length fanins - n_const)
                    (Array.length fanins))))
        view.luts);

  rule "SEM007" (fun () ->
      let dt = Lazy.force dt in
      List.iter
        (fun l ->
          let fanins = Netlist.fanins nl l in
          let controllable =
            Array.for_all
              (fun s ->
                Dataflow.cc0 dt s < Dataflow.infinite
                && Dataflow.cc1 dt s < Dataflow.infinite)
              fanins
          in
          if controllable && Dataflow.co dt l < Dataflow.infinite then
            emit
              (diag "SEM007" (name l)
                 (Printf.sprintf
                    "every input controllable (max cc %d) and output \
                     observable (co %d) without resolving another missing \
                     gate - prime Eq. 1 target"
                    (Array.fold_left
                       (fun acc s ->
                         max acc
                           (max (Dataflow.cc0 dt s) (Dataflow.cc1 dt s)))
                       0 fanins)
                    (Dataflow.co dt l))))
        view.luts);

  rule "SEM008" (fun () ->
      if view.luts <> [] then begin
        let dt = Lazy.force dt in
        let p = Lazy.force prover in
        List.iter emit (run_eq1 view dt p cutoffs)
      end);

  finish_prover ();
  if !cutoffs > 0 then
    emit
      (warn "SEM006" None
         (Printf.sprintf
            "%d semantic quer%s exhausted the %d-conflict budget: the \
             report is incomplete, not wrong (raise --budget to decide \
             them)"
            !cutoffs
            (if !cutoffs = 1 then "y" else "ies")
            view.budget));
  List.rev !ds
