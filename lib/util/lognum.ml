type t = float
(* The base-10 logarithm of the represented value; [neg_infinity] encodes
   zero.  NaN never appears: all constructors reject it. *)

let zero = neg_infinity
let one = 0.

let of_float x =
  if Float.is_nan x || x < 0. then
    invalid_arg "Lognum.of_float: negative or NaN"
  else if x = 0. then zero
  else Stdlib.log10 x

let of_int n = of_float (float_of_int n)

let log10 t = t
let is_zero t = t = neg_infinity

let mul a b = if is_zero a || is_zero b then zero else a +. b

let div a b =
  if is_zero b then raise Division_by_zero
  else if is_zero a then zero
  else a -. b

(* log10 (10^a + 10^b) = max + log10 (1 + 10^(min-max)) *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else
    let hi = Float.max a b and lo = Float.min a b in
    hi +. Stdlib.log10 (1. +. Float.pow 10. (lo -. hi))

let pow a n =
  if n < 0 then invalid_arg "Lognum.pow: negative exponent"
  else if n = 0 then one
  else if is_zero a then zero
  else a *. float_of_int n

let pow_float a x =
  if Float.is_nan x || x < 0. then invalid_arg "Lognum.pow_float"
  else if x = 0. then one
  else if is_zero a then zero
  else a *. x

let ( * ) = mul
let max a b = Float.max a b
let prod l = List.fold_left mul one l
let sum l = List.fold_left add zero l

let to_string t =
  if is_zero t then "0"
  else if t < 6. && t > -3. then
    let v = Float.pow 10. t in
    if Float.is_integer v && Float.abs v < 1e6 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.3g" v
  else
    let e = Float.to_int (Float.floor t) in
    let mant = Float.pow 10. (t -. Float.of_int e) in
    (* Rounding the mantissa to two decimals can push it to 10.00. *)
    let mant, e =
      if mant >= 9.995 then (1.0, Stdlib.( + ) e 1) else (mant, e)
    in
    Printf.sprintf "%.2fE%+d" mant e

let pp fmt t = Format.pp_print_string fmt (to_string t)

let seconds_per_year = 365.25 *. 24. *. 3600.
let seconds_to_years t = div t (of_float seconds_per_year)

let clocks_to_years ~rate_hz t =
  if rate_hz <= 0. then invalid_arg "Lognum.clocks_to_years: rate"
  else seconds_to_years (div t (of_float rate_hz))
