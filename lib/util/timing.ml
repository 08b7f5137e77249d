let time f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  let t1 = Unix.gettimeofday () in
  (result, t1 -. t0)

let format_min_sec seconds =
  if seconds < 0. then invalid_arg "Timing.format_min_sec: negative";
  let minutes = int_of_float (seconds /. 60.) in
  let rem = seconds -. (60. *. float_of_int minutes) in
  Printf.sprintf "%02d:%04.1f" minutes rem
