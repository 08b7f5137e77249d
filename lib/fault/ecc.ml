(* Extended Hamming (SECDED).  Codeword positions are 1-based; position
   [2^k] holds Hamming parity bit [k], every other position holds the
   next data bit, and an overall-parity bit (position 0 by convention)
   covers the whole codeword. *)

let hamming_bits n =
  let rec go r = if 1 lsl r >= n + r + 1 then r else go (r + 1) in
  go 1

let is_pow2 i = i land (i - 1) = 0

(* Codeword as a bool array indexed 1 .. n+r, data filled in position
   order; returns the array and the list of data positions. *)
let codeword data =
  let n = Array.length data in
  let r = hamming_bits n in
  let total = n + r in
  let word = Array.make (total + 1) false in
  let data_pos = Array.make n 0 in
  let d = ref 0 in
  for pos = 1 to total do
    if not (is_pow2 pos) then begin
      word.(pos) <- data.(!d);
      data_pos.(!d) <- pos;
      incr d
    end
  done;
  (word, data_pos, r, total)

let fill_parity word r total =
  for k = 0 to r - 1 do
    let p = 1 lsl k in
    let acc = ref false in
    for pos = 1 to total do
      if pos <> p && pos land p <> 0 && word.(pos) then acc := not !acc
    done;
    word.(p) <- !acc
  done

let encode data =
  let word, _, r, total = codeword data in
  fill_parity word r total;
  let parity = Array.make (r + 1) false in
  for k = 0 to r - 1 do
    parity.(k) <- word.(1 lsl k)
  done;
  (* overall parity over the full codeword *)
  let all = ref false in
  for pos = 1 to total do
    if word.(pos) then all := not !all
  done;
  parity.(r) <- !all;
  parity

type verdict = Clean | Corrected of bool array | Uncorrectable

let decode ~data ~parity =
  let n = Array.length data in
  let r = hamming_bits n in
  if Array.length parity <> r + 1 then
    invalid_arg "Ecc.decode: parity length mismatch";
  let word, data_pos, _, total = codeword data in
  for k = 0 to r - 1 do
    word.(1 lsl k) <- parity.(k)
  done;
  (* syndrome: XOR of the indices of all set positions, computed as the
     per-parity-group checks *)
  let syndrome = ref 0 in
  for k = 0 to r - 1 do
    let p = 1 lsl k in
    let acc = ref false in
    for pos = 1 to total do
      if pos land p <> 0 && word.(pos) then acc := not !acc
    done;
    if !acc then syndrome := !syndrome lor p
  done;
  let overall = ref parity.(r) in
  for pos = 1 to total do
    if word.(pos) then overall := not !overall
  done;
  let odd_weight = !overall in
  if !syndrome = 0 && not odd_weight then Clean
  else if odd_weight then begin
    (* single error: at the syndrome position, or in the overall-parity
       cell itself when the syndrome is zero *)
    if !syndrome = 0 || !syndrome > total then
      (* overall-parity cell flipped (or points outside: treat as a
         parity-cell error) — data is intact *)
      Corrected (Array.copy data)
    else begin
      word.(!syndrome) <- not word.(!syndrome);
      let repaired = Array.init n (fun i -> word.(data_pos.(i))) in
      Corrected repaired
    end
  end
  else Uncorrectable
