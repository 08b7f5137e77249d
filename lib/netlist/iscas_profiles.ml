type info = {
  name : string;
  n_pi : int;
  n_po : int;
  n_ff : int;
  n_gates : int;
  levels : int;
}

let mk name n_pi n_po n_ff n_gates levels =
  { name; n_pi; n_po; n_ff; n_gates; levels }

(* Gate counts are the paper's Table I "size" column; PI/PO/FF counts are
   the standard ISCAS'89 statistics for the corresponding circuits (the
   paper's "a" variants are treated as the standard circuits).  Depth is a
   representative combinational level count from the literature. *)
let all =
  [
    mk "s641" 35 24 19 287 20;
    mk "s820" 18 19 5 289 10;
    mk "s832" 18 19 5 379 10;
    mk "s953" 16 23 29 395 12;
    mk "s1196" 14 14 18 508 16;
    mk "s1238" 14 14 18 529 16;
    mk "s1488" 8 19 6 657 13;
    mk "s5378a" 35 49 179 2779 18;
    mk "s9234a" 36 39 211 5597 22;
    mk "s13207" 62 152 638 7951 22;
    mk "s15850a" 77 150 534 9772 26;
    mk "s38584" 38 304 1426 19253 24;
  ]

let find name = List.find_opt (fun i -> i.name = name) all

let find_exn name =
  match find name with
  | Some i -> i
  | None -> invalid_arg ("Iscas_profiles.find_exn: unknown benchmark " ^ name)

let default_seed info = 0x5717c (* "STTC" *) lxor Hashtbl.hash info.name

let build_with ?seed info =
  let seed = match seed with Some s -> s | None -> default_seed info in
  Generator.generate ~seed
    {
      Generator.design_name = info.name;
      n_pi = info.n_pi;
      n_po = info.n_po;
      n_ff = info.n_ff;
      n_gates = info.n_gates;
      levels = info.levels;
    }

let build info = build_with info
let build_by_name ?seed name = build_with ?seed (find_exn name)

let names = List.map (fun i -> i.name) all
