type t = {
  arity : int;
  bits : int64;
}

let max_arity = 6

let check_arity n =
  if n < 0 || n > max_arity then invalid_arg "Truth: arity out of range"

let arity t = t.arity
let rows t = 1 lsl t.arity

let mask n = if n >= 6 then -1L else Int64.sub (Int64.shift_left 1L (1 lsl n)) 1L

let of_bits ~arity bits =
  check_arity arity;
  if Int64.logand bits (Int64.lognot (mask arity)) <> 0L then
    invalid_arg "Truth.of_bits: bits beyond 2^arity";
  { arity; bits }

let bits t = t.bits

let create ~arity f =
  check_arity arity;
  let bits = ref 0L in
  let inputs = Array.make arity false in
  for r = 0 to (1 lsl arity) - 1 do
    for k = 0 to arity - 1 do
      inputs.(k) <- (r lsr k) land 1 = 1
    done;
    if f inputs then bits := Int64.logor !bits (Int64.shift_left 1L r)
  done;
  { arity; bits = !bits }

let const_false ~arity =
  check_arity arity;
  { arity; bits = 0L }

let const_true ~arity =
  check_arity arity;
  { arity; bits = mask arity }

let row t i =
  if i < 0 || i >= rows t then invalid_arg "Truth.row: index";
  Int64.logand (Int64.shift_right_logical t.bits i) 1L = 1L

let eval t inputs =
  if Array.length inputs <> t.arity then invalid_arg "Truth.eval: arity";
  let r = ref 0 in
  for k = 0 to t.arity - 1 do
    if inputs.(k) then r := !r lor (1 lsl k)
  done;
  row t !r

let equal a b = a.arity = b.arity && Int64.equal a.bits b.bits

let popcount64 x =
  let rec loop acc x = if Int64.equal x 0L then acc
    else loop (acc + 1) (Int64.logand x (Int64.sub x 1L))
  in
  loop 0 x

let agreement a b =
  if a.arity <> b.arity then invalid_arg "Truth.agreement: arity mismatch";
  rows a - popcount64 (Int64.logxor a.bits b.bits)

let cofactor t k v =
  if k < 0 || k >= t.arity then invalid_arg "Truth.cofactor: index";
  create ~arity:t.arity (fun inputs ->
      let inputs = Array.copy inputs in
      inputs.(k) <- v;
      eval t inputs)

let depends_on t k =
  not (equal (cofactor t k false) (cofactor t k true))

let to_string t =
  String.init (rows t) (fun i -> if row t i then '1' else '0')

let of_string s =
  let n = String.length s in
  let arity =
    match n with
    | 1 -> 0
    | 2 -> 1
    | 4 -> 2
    | 8 -> 3
    | 16 -> 4
    | 32 -> 5
    | 64 -> 6
    | _ -> invalid_arg "Truth.of_string: length must be a power of two <= 64"
  in
  let bits = ref 0L in
  String.iteri
    (fun i c ->
      match c with
      | '1' -> bits := Int64.logor !bits (Int64.shift_left 1L i)
      | '0' -> ()
      | _ -> invalid_arg "Truth.of_string: expected 0/1")
    s;
  { arity; bits = !bits }

let random rng ~arity =
  check_arity arity;
  { arity; bits = Int64.logand (Sttc_util.Rng.int64 rng) (mask arity) }
