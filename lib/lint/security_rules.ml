module D = Diagnostic
module Netlist = Sttc_netlist.Netlist
module Query = Sttc_netlist.Query
module Sta = Sttc_analysis.Sta

type algorithm = Independent | Dependent | Parametric

type parametric_meta = {
  usl : Netlist.node_id list;
  neighbours : Netlist.node_id list;
}

type view = {
  foundry : Netlist.t;
  luts : Netlist.node_id list;
  algorithm : algorithm option;
  meta : parametric_meta option;
  original : Netlist.t option;
  clock_factor : float;
}

let view ?algorithm ?meta ?original ?(clock_factor = 1.08) ~foundry ~luts () =
  { foundry; luts; algorithm; meta; original; clock_factor }

type rule = Structural.rule = {
  id : string;
  alias : string;
  severity : D.severity;
  doc : string;
}

let r_trivial =
  {
    id = "SEC001";
    alias = "trivial-lut";
    severity = D.Warning;
    doc =
      "Isolated LUT fed only by primary inputs/constants whose output \
       reaches a primary output through no other LUT and no flip-flop: \
       trivially justifiable and propagatable, so it contributes almost \
       nothing to the Eq. 1 attack cost.";
  }

let r_broken_chain =
  {
    id = "SEC002";
    alias = "broken-chain";
    severity = D.Error;
    doc =
      "Under dependent selection every missing gate must sit on a \
       LUT-to-LUT dependency chain (Eq. 2); this LUT neither reaches nor \
       is reached by any other LUT.";
  }

let r_missing_neighbour =
  {
    id = "SEC003";
    alias = "missing-neighbour";
    severity = D.Error;
    doc =
      "Parametric-aware selection recorded this gate as a replaced \
       off-path neighbourhood member (Eq. 3 / Algorithm 2 USL closure), \
       but the foundry view does not show a LUT slot there.";
  }

let r_unobservable =
  {
    id = "SEC004";
    alias = "unobservable-lut";
    severity = D.Error;
    doc =
      "LUT output reaches no primary output: zero corruptibility, the \
       slot adds cost but no security.";
  }

let r_timing =
  {
    id = "SEC005";
    alias = "timing-violation";
    severity = D.Error;
    doc =
      "Post-replacement critical delay exceeds the clock budget \
       (clock_factor x original critical delay).  Error when a \
       parametric-aware selection put a LUT on the violating path, \
       warning otherwise.";
  }

let r_config_leak =
  {
    id = "SEC006";
    alias = "config-leak";
    severity = D.Error;
    doc =
      "The foundry view carries a programmed LUT configuration: the \
       secret bitstream would ship to the untrusted fab.";
  }

let r_not_a_lut =
  {
    id = "SEC007";
    alias = "not-a-lut";
    severity = D.Error;
    doc = "A listed missing-gate id is not a LUT slot in the foundry view.";
  }

let rules =
  [
    r_trivial;
    r_broken_chain;
    r_missing_neighbour;
    r_unobservable;
    r_timing;
    r_config_leak;
    r_not_a_lut;
  ]

let diag rule ?node ?severity detail =
  D.make ~rule:rule.id ~alias:rule.alias
    ~severity:(Option.value severity ~default:rule.severity)
    ?node detail

let valid_id v id = id >= 0 && id < Netlist.node_count v.foundry

let lut_name v id =
  if valid_id v id then Netlist.name v.foundry id
  else "#" ^ string_of_int id

(* Out-of-range ids are SEC007's finding; every other check must skip
   them rather than crash dereferencing the foundry view. *)
let valid_luts v = List.filter (valid_id v) v.luts

(* ---------- SEC001 ---------- *)

let check_trivial v =
  let nl = v.foundry in
  let module Int_set = Set.Make (Int) in
  let po_set = Int_set.of_list (Netlist.pos nl) in
  let trivially_propagates lut =
    (* forward through combinational CMOS logic only: stop at DFFs and at
       other LUT slots (both mask the value) *)
    let visited = Hashtbl.create 16 in
    let rec go id =
      if Hashtbl.mem visited id then false
      else begin
        Hashtbl.add visited id ();
        if Int_set.mem id po_set then true
        else
          List.exists
            (fun reader ->
              match Netlist.kind nl reader with
              | Netlist.Dff -> false
              | Netlist.Lut _ -> false
              | Netlist.Gate _ ->
                  if Int_set.mem reader po_set then true else go reader
              | Netlist.Pi | Netlist.Const _ -> false)
            (Netlist.fanouts nl id)
      end
    in
    go lut
  in
  List.filter_map
    (fun lut ->
      let fanins = Netlist.fanins nl lut in
      let all_primary =
        Array.for_all
          (fun src ->
            match Netlist.kind nl src with
            | Netlist.Pi | Netlist.Const _ -> true
            | _ -> false)
          fanins
      in
      if all_primary && Array.length fanins > 0 && trivially_propagates lut
      then
        Some
          (diag r_trivial ~node:(lut_name v lut)
             "fed only by primary inputs and observable through CMOS-only \
              logic; sensitization is immediate")
      else None)
    (valid_luts v)

(* ---------- SEC002 ---------- *)

(* Dependency here is reachability across flip-flops: Eq. 2's argument
   is that resolving LUT [i] requires resolving the LUTs feeding it,
   with the flip-flop depth [D_i] only delaying observation.  Purely
   combinational pairs are a stronger (and separately reported) subset. *)
let check_broken_chain v =
  let luts = valid_luts v in
  match v.algorithm with
  | Some Dependent when List.length luts >= 2 ->
      let chained lut =
        List.exists
          (fun other ->
            other <> lut
            && (Query.reaches v.foundry lut other
               || Query.reaches v.foundry other lut))
          luts
      in
      List.filter_map
        (fun lut ->
          if chained lut then None
          else
            Some
              (diag r_broken_chain ~node:(lut_name v lut)
                 "no other missing gate is reachable from it, and it is \
                  reachable from none (isolated from every dependency \
                  chain)"))
        luts
  | _ -> []

(* ---------- SEC003 ---------- *)

let check_missing_neighbour v =
  match v.meta with
  | None -> []
  | Some meta ->
      let module Int_set = Set.Make (Int) in
      let lut_set = Int_set.of_list v.luts in
      List.filter_map
        (fun id ->
          let is_lut_slot =
            valid_id v id
            && Int_set.mem id lut_set
            &&
            match Netlist.kind v.foundry id with
            | Netlist.Lut _ -> true
            | _ -> false
          in
          if is_lut_slot then None
          else
            Some
              (diag r_missing_neighbour ~node:(lut_name v id)
                 "recorded as a replaced off-path neighbourhood gate, but \
                  the foundry view keeps it as CMOS"))
        meta.neighbours

(* ---------- SEC004 ---------- *)

let check_unobservable v =
  let depth = Query.sequential_depth_to_po v.foundry in
  List.filter_map
    (fun lut ->
      if lut >= 0 && lut < Array.length depth && depth.(lut) = max_int then
        Some
          (diag r_unobservable ~node:(lut_name v lut)
             "no path from this LUT to any primary output; corrupting it \
              is unobservable")
      else None)
    v.luts

(* ---------- SEC005 ---------- *)

let check_timing v =
  match v.original with
  | None -> []
  | Some original ->
      let base = Sta.analyze Sttc_tech.Library.cmos90 original in
      let hyb = Sta.analyze Sttc_tech.Library.cmos90 v.foundry in
      let budget = v.clock_factor *. Sta.critical_delay_ps base in
      let delay = Sta.critical_delay_ps hyb in
      if delay <= budget +. 1e-6 then []
      else
        let critical = Sta.critical_path hyb in
        let lut_on_path = List.exists (fun id -> List.mem id v.luts) critical in
        let severity =
          if v.algorithm = Some Parametric && lut_on_path then D.Error
          else D.Warning
        in
        let node =
          match List.filter (fun id -> List.mem id v.luts) critical with
          | lut :: _ -> Some (lut_name v lut)
          | [] -> None
        in
        [
          diag r_timing ?node ~severity
            (Printf.sprintf
               "critical delay %.1f ps exceeds budget %.1f ps (%.2f x \
                original %.1f ps)"
               delay budget v.clock_factor
               (Sta.critical_delay_ps base));
        ]

(* ---------- SEC006 / SEC007 ---------- *)

let check_foundry_luts v =
  List.concat_map
    (fun lut ->
      if lut < 0 || lut >= Netlist.node_count v.foundry then
        [
          diag r_not_a_lut
            (Printf.sprintf "missing-gate id %d is out of range" lut);
        ]
      else
        match Netlist.kind v.foundry lut with
        | Netlist.Lut { config = Some _; _ } ->
            [
              diag r_config_leak ~node:(lut_name v lut)
                "LUT is configured in the foundry view; the secret must \
                 only live in the provisioning bitstream";
            ]
        | Netlist.Lut { config = None; _ } -> []
        | _ ->
            [
              diag r_not_a_lut ~node:(lut_name v lut)
                "listed as a missing gate but the foundry view holds a \
                 CMOS node here";
            ])
    v.luts

(* ---------- driver ---------- *)

let run v =
  List.concat_map
    (fun check -> check v)
    [
      check_trivial;
      check_broken_chain;
      check_missing_neighbour;
      check_unobservable;
      check_timing;
      check_foundry_luts;
    ]
