module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Lognum = Sttc_util.Lognum
module Netlist = Sttc_netlist.Netlist

type family = (int -> Truth.t list) option

type t = {
  name : string;
  description : string;
  lut_style : Sttc_tech.Library.lut_style;
  cell_noun : string;
  candidates : family;
  alpha : int -> float;
  p : int -> float;
  write_energy_fj : float;
  write_time_ns : float;
}

let name t = t.name

let cell_keyspace family ~arity =
  if arity < 1 || arity > Truth.max_arity then
    invalid_arg "Backend.cell_keyspace: arity out of range";
  match family with
  | None -> Lognum.pow (Lognum.of_int 2) (1 lsl arity)
  | Some f -> Lognum.of_int (List.length (f arity))

let lut_arity nl id =
  match Netlist.kind nl id with
  | Netlist.Lut { arity; _ } -> arity
  | _ -> invalid_arg "Backend: not a LUT node"

let search_space family nl luts =
  let arities = List.map (lut_arity nl) luts in
  match family with
  | None ->
      (* one power of two over the summed configuration bits, so a free
         count is the same number however its cells are grouped *)
      Lognum.pow (Lognum.of_int 2)
        (List.fold_left (fun bits arity -> bits + (1 lsl arity)) 0 arities)
  | Some _ ->
      Lognum.prod (List.map (fun arity -> cell_keyspace family ~arity) arities)

(* ---------- the registry ---------- *)

let stt =
  {
    name = "stt";
    description = "non-volatile STT-MRAM LUTs (the paper's technology)";
    lut_style = Sttc_tech.Library.Stt;
    cell_noun = "MTJ";
    (* a LUT realizes any function of its inputs: no candidate
       restriction, the full 2^2^n keyspace *)
    candidates = None;
    alpha = Gate_fn.paper_alpha;
    p = Gate_fn.paper_p;
    write_energy_fj = Sttc_tech.Stt_lib.write_energy_fj;
    write_time_ns = Sttc_tech.Stt_lib.write_time_ns;
  }

let tvd =
  {
    name = "tvd";
    description = "threshold-voltage-defined camouflaged cells";
    lut_style = Sttc_tech.Library.Tvd;
    cell_noun = "TVD";
    (* one TVD layout realizes exactly the meaningful-gate family of its
       fan-in; the attacker knows the family, only the implant is secret *)
    candidates =
      Some
        (fun n ->
          List.map Gate_fn.truth (Sttc_tech.Tvd_lib.candidate_functions n));
    (* first-principles constants on the candidate family, the same
       derivation as Security.computed_constants *)
    alpha = (fun n -> if n = 1 then 1.5 else Gate_fn.computed_alpha n);
    p = (fun n -> float_of_int (Gate_fn.candidate_count n));
    write_energy_fj = Sttc_tech.Tvd_lib.program_energy_fj;
    write_time_ns = Sttc_tech.Tvd_lib.program_time_ns;
  }

let all = [ stt; tvd ]
let find n = List.find_opt (fun b -> b.name = n) all
let names () = List.map (fun b -> b.name) all

let find_exn n =
  match find n with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "unknown backend %s (expected one of %s)" n
           (String.concat ", " (names ())))

(* ---------- flow integration helpers ---------- *)

let eval_library t library =
  Sttc_tech.Library.with_lut_style library t.lut_style

let sat_candidates family nl luts =
  match family with
  | None -> []
  | Some f -> List.map (fun id -> (id, f (lut_arity nl id))) luts
