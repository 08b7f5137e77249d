let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let sorted xs = List.sort Float.compare xs

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty";
  if not (0. <= p && p <= 100.) then
    invalid_arg "Stats.percentile: p out of range";
  let arr = Array.of_list (sorted xs) in
  let n = Array.length arr in
  let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
  arr.(max 0 (min (n - 1) (rank - 1)))

let relative_overhead ~base ~modified =
  if base = 0. then 0. else (modified -. base) /. base *. 100.
