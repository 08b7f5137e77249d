module Netlist = Sttc_netlist.Netlist
module Paths = Sttc_analysis.Paths
module Sta = Sttc_analysis.Sta
module Rng = Sttc_util.Rng

let independent ~rng ?(count = 5) ctx =
  if count < 1 then invalid_arg "Algorithms.independent: count";
  let candidates = Array.of_list (Select.pool ctx) in
  let candidates =
    if Array.length candidates >= count then candidates
    else
      (* paths too sparse (tiny circuits): widen to the full gate set *)
      Array.of_list (Netlist.gates ctx.Select.netlist)
  in
  Array.to_list (Rng.sample rng count candidates)

let dependent ~rng ctx =
  ignore rng;
  (* Algorithm 1: the deepest non-critical I/O path; all gates of its
     composing timing paths become reconfigurable units. *)
  match ctx.Select.paths with
  | [] ->
      (* no multi-FF path: degrade to the longest combinational run we can
         find — the deepest remaining path in the sample is absent, so use
         the whole gate pool of a fresh walk, or finally any gate chain *)
      Netlist.gates ctx.Select.netlist |> fun gates ->
      (match gates with
      | [] -> invalid_arg "Algorithms.dependent: no gates"
      | g :: _ -> Sttc_netlist.Query.fanin_cone ctx.Select.netlist g)
      |> List.filter (fun id ->
             match Netlist.kind ctx.Select.netlist id with
             | Netlist.Gate _ -> true
             | _ -> false)
  | best :: _ -> Select.replaceable ctx best

type parametric_options = {
  clock_factor : float;
  n_paths : int option;
  select_fraction : float;
  max_retries : int;
}

let default_parametric =
  { clock_factor = 1.08; n_paths = None; select_fraction = 0.35; max_retries = 6 }

type parametric_meta = {
  usl : Netlist.node_id list;
  closure_neighbours : Netlist.node_id list;
}

let parametric_with_meta ~rng ?(options = default_parametric) ctx =
  let nl = ctx.Select.netlist in
  let clock_ps =
    options.clock_factor *. Sta.critical_delay_ps ctx.Select.sta
  in
  let trial = Lazy.force ctx.Select.trial in
  (* The unit of selection is the timing path (FF-to-FF / PI-to-FF /
     FF-to-PO segment), per the end of Section IV-A: "randomly select a
     pre-determined number of timing paths and select a pre-determined
     number of random nodes within that timing path". *)
  let n_segments =
    match options.n_paths with
    | Some n -> max 1 n
    | None -> max 3 (Netlist.gate_count nl / 1200)
  in
  let all_segments =
    List.concat_map (fun p -> Paths.segments nl p) ctx.Select.paths
    |> List.filter (fun s -> s.Paths.gates <> [])
  in
  let chosen_segments =
    let arr = Array.of_list all_segments in
    if Array.length arr = 0 then [||] else Rng.sample rng n_segments arr
  in
  let module Int_set = Set.Make (Int) in
  let on_chosen_io_paths =
    Array.fold_left
      (fun acc s ->
        List.fold_left (fun acc id -> Int_set.add id acc) acc s.Paths.gates)
      Int_set.empty chosen_segments
  in
  let replaced = ref Int_set.empty in
  let usl = ref Int_set.empty in
  let eligible seg_gates =
    List.filter
      (fun id ->
        match Netlist.kind nl id with
        | Netlist.Gate fn -> Sttc_logic.Gate_fn.arity fn >= 2
        | _ -> false)
      seg_gates
  in
  Array.iter
    (fun seg ->
      let gates = eligible seg.Paths.gates in
      match gates with
      | [] -> ()
      | _ ->
          let arr = Array.of_list gates in
          (* L1: draw, shrink on timing violation *)
          let rec attempt retries want =
            if want = 0 || retries > options.max_retries then []
            else
              let pick = Array.to_list (Rng.sample rng want arr) in
              Sta.trial_set trial
                (Int_set.elements
                   (Int_set.union !replaced (Int_set.of_list pick)));
              if Sta.trial_current_delay_ps trial <= clock_ps then pick
              else attempt (retries + 1) (max 0 (want - 1))
          in
          let want =
            max 1
              (int_of_float
                 (options.select_fraction *. float_of_int (Array.length arr)))
          in
          let pick = attempt 0 want in
          replaced := Int_set.union !replaced (Int_set.of_list pick);
          let picked = Int_set.of_list pick in
          List.iter
            (fun id ->
              match Netlist.kind nl id with
              | Netlist.Gate _ ->
                  if not (Int_set.mem id picked) then usl := Int_set.add id !usl
              | _ -> ())
            seg.Paths.gates)
    chosen_segments;
  (* USL closure: replace immediate neighbours (drivers and driven gates)
     of every unselected gate, provided they are CMOS gates off the chosen
     I/O paths. *)
  let closure = ref Int_set.empty in
  Int_set.iter
    (fun g ->
      let neighbours =
        Array.to_list (Netlist.fanins nl g) @ Netlist.fanouts nl g
      in
      List.iter
        (fun nb ->
          if not (Int_set.mem nb on_chosen_io_paths) then
            match Netlist.kind nl nb with
            | Netlist.Gate _ ->
                replaced := Int_set.add nb !replaced;
                closure := Int_set.add nb !closure
            | _ -> ())
        neighbours)
    !usl;
  (* The USL closure is unconditional in Algorithm 2, but the whole point
     of the parametric-aware method is to "minimize the impact and
     possibly avoid violating timing": repair any violation the closure
     introduced by dropping replaced gates from the freshly critical path
     until the constraint holds again. *)
  let repair_budget = ref (Int_set.cardinal !replaced) in
  while (not (Int_set.is_empty !replaced)) && !repair_budget > 0 do
    Sta.trial_set trial (Int_set.elements !replaced);
    let delay, critical = Sta.trial_current_critical trial in
    if delay <= clock_ps then repair_budget := 0
    else begin
      Sttc_util.Budget.check ();
      decr repair_budget;
      match List.filter (fun id -> Int_set.mem id !replaced) critical with
      | [] -> repair_budget := 0 (* violation not caused by our LUTs *)
      | worst :: _ -> replaced := Int_set.remove worst !replaced
    end
  done;
  (* Tiny circuits can end with an empty pick (every draw violated
     timing); guarantee at least one replacement on an off-path gate. *)
  if Int_set.is_empty !replaced then begin
    let gates = Array.of_list (Netlist.gates nl) in
    if Array.length gates > 0 then
      replaced := Int_set.singleton (Rng.pick rng gates)
  end;
  (* The timing-repair loop may have dropped closure gates again; the
     metadata only records the neighbours that survived into the final
     replacement set, so downstream checks re-verify exactly what the
     hybrid is supposed to contain. *)
  let meta =
    {
      usl = Int_set.elements !usl;
      closure_neighbours = Int_set.elements (Int_set.inter !closure !replaced);
    }
  in
  (Int_set.elements !replaced, meta)
