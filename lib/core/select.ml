module Netlist = Sttc_netlist.Netlist
module Paths = Sttc_analysis.Paths
module Sta = Sttc_analysis.Sta

type context = {
  netlist : Netlist.t;
  sta : Sta.t;
  paths : Paths.io_path list;
  trial : Sta.trial Lazy.t;
}

let prepare ~rng ?(fraction = 0.02) ?(min_ffs = 2) ?sta library netlist =
  let sta =
    match sta with
    | Some s when Sta.netlist s == netlist -> s
    | Some _ | None -> Sta.analyze library netlist
  in
  let critical = Sta.critical_path sta in
  let paths =
    Paths.sample ~rng ~fraction ~min_ffs ~exclude_critical:critical netlist
  in
  {
    netlist;
    sta;
    paths;
    trial = lazy (Sta.trial library sta);
  }

let replaceable ctx path =
  List.filter
    (fun id ->
      match Netlist.kind ctx.netlist id with
      | Netlist.Gate _ -> true
      | _ -> false)
    path.Paths.nodes

let pool ctx =
  let seen = Hashtbl.create 64 in
  List.concat_map (fun p -> replaceable ctx p) ctx.paths
  |> List.filter (fun id ->
         if Hashtbl.mem seen id then false
         else begin
           Hashtbl.add seen id ();
           true
         end)
