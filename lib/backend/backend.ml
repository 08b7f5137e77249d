module Gate_fn = Sttc_logic.Gate_fn
module Truth = Sttc_logic.Truth
module Lognum = Sttc_util.Lognum

type t = {
  name : string;
  description : string;
  lut_style : Sttc_tech.Library.lut_style;
  cell_noun : string;
  candidates : (int -> Truth.t list) option;
  alpha : int -> float;
  p : int -> float;
  write_energy_fj : float;
  write_time_ns : float;
}

let name t = t.name
let restricted t = t.candidates <> None

let candidate_tables t ~arity =
  match t.candidates with None -> None | Some f -> Some (f arity)

let cell_keyspace t ~arity =
  if arity < 1 || arity > Truth.max_arity then
    invalid_arg "Backend.cell_keyspace: arity out of range";
  match t.candidates with
  | None -> Lognum.pow (Lognum.of_int 2) (1 lsl arity)
  | Some f -> Lognum.of_int (List.length (f arity))

let search_space t ~arities =
  List.fold_left
    (fun acc n -> Lognum.mul acc (cell_keyspace t ~arity:n))
    Lognum.one arities

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

let sat_candidates t nl luts =
  match t.candidates with
  | None -> []
  | Some f ->
      List.map
        (fun id ->
          match Sttc_netlist.Netlist.kind nl id with
          | Sttc_netlist.Netlist.Lut { arity; _ } -> (id, f arity)
          | _ -> invalid_arg "Backend.sat_candidates: not a LUT node")
        luts
