(* splitmix64: tiny, fast, and good enough statistical quality for workload
   generation; chosen over [Random.State] to guarantee stream stability
   across OCaml releases. *)

(* The 64-bit state lives unboxed in an 8-byte [Bytes]: with a
   [mutable int64] field every draw would allocate a fresh boxed state,
   and netlist generation draws several times per gate. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let[@inline] next_raw t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make seed = of_state (Int64.of_int seed)

let int64 t = next_raw t

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int.  Rejection-
     free: modulo bias is < 2^-38 for the bounds used in this code base
     (all far below 2^24). *)
  let v = Int64.to_int (Int64.shift_right_logical (next_raw t) 2) in
  v mod bound

let bool t = Int64.logand (next_raw t) 1L = 1L

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  let v = Int64.to_float (Int64.shift_right_logical (next_raw t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let pick_list t l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k arr =
  let n = Array.length arr in
  let k = Stdlib.min k n in
  let scratch = Array.copy arr in
  (* Partial Fisher-Yates: only the first [k] positions need settling. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = scratch.(i) in
    scratch.(i) <- scratch.(j);
    scratch.(j) <- tmp
  done;
  Array.sub scratch 0 k
