type t =
  | Buf
  | Not
  | And of int
  | Nand of int
  | Or of int
  | Nor of int
  | Xor of int
  | Xnor of int

let arity = function
  | Buf | Not -> 1
  | And n | Nand n | Or n | Nor n | Xor n | Xnor n -> n

let validate t =
  match t with
  | Buf | Not -> ()
  | And n | Nand n | Or n | Nor n | Xor n | Xnor n ->
      if n < 2 || n > Truth.max_arity then
        invalid_arg "Gate_fn.validate: arity out of [2, 6]"

let eval t inputs =
  if Array.length inputs <> arity t then invalid_arg "Gate_fn.eval: arity";
  let conj () = Array.for_all Fun.id inputs in
  let disj () = Array.exists Fun.id inputs in
  let parity () = Array.fold_left (fun acc b -> acc <> b) false inputs in
  match t with
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And _ -> conj ()
  | Nand _ -> not (conj ())
  | Or _ -> disj ()
  | Nor _ -> not (disj ())
  | Xor _ -> parity ()
  | Xnor _ -> not (parity ())

let tabulate t = Truth.create ~arity:(arity t) (eval t)

let index t =
  validate t;
  match t with
  | Buf -> 0
  | Not -> 1
  | And n -> 2 + (6 * (n - 2))
  | Nand n -> 3 + (6 * (n - 2))
  | Or n -> 4 + (6 * (n - 2))
  | Nor n -> 5 + (6 * (n - 2))
  | Xor n -> 6 + (6 * (n - 2))
  | Xnor n -> 7 + (6 * (n - 2))

let name = function
  | Buf -> "BUFF"
  | Not -> "NOT"
  | And _ -> "AND"
  | Nand _ -> "NAND"
  | Or _ -> "OR"
  | Nor _ -> "NOR"
  | Xor _ -> "XOR"
  | Xnor _ -> "XNOR"

let to_string t =
  match t with
  | Buf -> "BUF"
  | Not -> "NOT"
  | And n -> Printf.sprintf "AND%d" n
  | Nand n -> Printf.sprintf "NAND%d" n
  | Or n -> Printf.sprintf "OR%d" n
  | Nor n -> Printf.sprintf "NOR%d" n
  | Xor n -> Printf.sprintf "XOR%d" n
  | Xnor n -> Printf.sprintf "XNOR%d" n

let of_bench_name s ~arity:n =
  match (String.uppercase_ascii s, n) with
  | ("BUF" | "BUFF"), 1 -> Some Buf
  | ("NOT" | "INV"), 1 -> Some Not
  | "AND", n when n >= 2 -> Some (And n)
  | "NAND", n when n >= 2 -> Some (Nand n)
  | "OR", n when n >= 2 -> Some (Or n)
  | "NOR", n when n >= 2 -> Some (Nor n)
  | "XOR", n when n >= 2 -> Some (Xor n)
  | "XNOR", n when n >= 2 -> Some (Xnor n)
  | _ -> None

let all_of_arity n =
  if n = 1 then [ Buf; Not ]
  else if n >= 2 && n <= Truth.max_arity then
    [ And n; Nand n; Or n; Nor n; Xor n; Xnor n ]
  else invalid_arg "Gate_fn.all_of_arity"

let all = List.concat_map all_of_arity (List.init Truth.max_arity succ)

(* the tables of every valid function, built once: the per-node analyses
   ask for them on every call *)
let truths = Array.of_list (List.map tabulate all)

let truth t =
  match index t with
  | i -> truths.(i)
  | exception Invalid_argument _ -> tabulate t

let similarity a b = Truth.agreement (truth a) (truth b)

let average_similarity n =
  let gates = Array.of_list (all_of_arity n) in
  let count = ref 0 and total = ref 0 in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if j > i then begin
            incr count;
            total := !total + similarity a b
          end)
        gates)
    gates;
  if !count = 0 then 0. else float_of_int !total /. float_of_int !count

let computed_alpha n = average_similarity n +. 1.

(* Published constants from Section IV-A.  The paper's alpha for 2-input
   gates (2.45) implies an average similarity of 1.45, slightly below the
   1.6 obtained on the plain 6-gate set; the authors presumably average over
   a wider candidate mix.  We keep their constants for the Fig. 3
   reproduction and expose [computed_alpha] for sensitivity studies. *)
let paper_alpha = function
  | 1 -> 1.5
  | 2 -> 2.45
  | 3 -> 4.2
  | 4 -> 7.4
  | n when n > 4 ->
      (* extrapolate by the paper's observed ~1.75x per extra input *)
      7.4 *. (1.75 ** float_of_int (n - 4))
  | _ -> invalid_arg "Gate_fn.paper_alpha"

let candidate_count n = List.length (all_of_arity n)

(* P = 2.5 for 2-input (paper); scale the larger meaningful sets (the paper
   counts "more than 12" for 3-/4-input LUTs) by the same published ratio
   2.5/6. *)
let paper_p = function
  | 1 -> 1.5
  | 2 -> 2.5
  | 3 -> 5.0
  | 4 -> 5.4
  | n when n > 4 -> 5.4
  | _ -> invalid_arg "Gate_fn.paper_p"
