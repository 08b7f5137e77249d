module Sta = Sttc_analysis.Sta
module Activity = Sttc_analysis.Activity
module Power = Sttc_analysis.Power
module Area = Sttc_analysis.Area
module Netlist = Sttc_netlist.Netlist

type overhead = {
  performance_pct : float;
  power_pct : float;
  area_pct : float;
  n_stts : int;
  base_delay_ps : float;
  hybrid_delay_ps : float;
  base_power_uw : float;
  hybrid_power_uw : float;
  base_area_um2 : float;
  hybrid_area_um2 : float;
}

type baseline = {
  b_netlist : Netlist.t;
  b_library : Sttc_tech.Library.t;
  b_sta : Sta.t;
  b_activity : Activity.t;
  b_power : Power.report;
  b_area : Area.report;
}

let baseline ?sta lib nl =
  let b_sta =
    match sta with
    | Some s when Sta.netlist s == nl -> s
    | Some _ | None -> Sta.analyze lib nl
  in
  let b_activity = Activity.analyze nl in
  {
    b_netlist = nl;
    b_library = lib;
    b_sta;
    b_activity;
    b_power = Power.estimate ~activity:b_activity lib nl;
    b_area = Area.estimate lib nl;
  }

let matches bl lib nl = bl.b_netlist == nl && bl.b_library = lib
let baseline_sta bl = bl.b_sta

let evaluate ?baseline:b lib ~base ~hybrid =
  let bl =
    match b with
    | Some bl when matches bl lib base -> bl
    | Some _ | None -> baseline lib base
  in
  let sta_h = Sta.retime lib bl.b_sta hybrid in
  let act_h = Activity.refine bl.b_activity hybrid in
  let pow_h = Power.estimate ~activity:act_h lib hybrid in
  let area_h = Area.estimate lib hybrid in
  let rel = Sttc_util.Stats.relative_overhead in
  {
    performance_pct =
      rel
        ~base:(Sta.critical_delay_ps bl.b_sta)
        ~modified:(Sta.critical_delay_ps sta_h);
    power_pct =
      rel ~base:bl.b_power.Power.total_uw ~modified:pow_h.Power.total_uw;
    area_pct =
      rel ~base:bl.b_area.Area.total_um2 ~modified:area_h.Area.total_um2;
    n_stts = List.length (Netlist.luts hybrid);
    base_delay_ps = Sta.critical_delay_ps bl.b_sta;
    hybrid_delay_ps = Sta.critical_delay_ps sta_h;
    base_power_uw = bl.b_power.Power.total_uw;
    hybrid_power_uw = pow_h.Power.total_uw;
    base_area_um2 = bl.b_area.Area.total_um2;
    hybrid_area_um2 = area_h.Area.total_um2;
  }

let pp fmt o =
  Format.fprintf fmt
    "overhead: perf %.2f%% (%.0f -> %.0f ps), power %.2f%% (%.1f -> %.1f uW), \
     area %.2f%% (%.0f -> %.0f um2), %d STT LUTs"
    o.performance_pct o.base_delay_ps o.hybrid_delay_ps o.power_pct
    o.base_power_uw o.hybrid_power_uw o.area_pct o.base_area_um2
    o.hybrid_area_um2 o.n_stts
