(* Order statistics over repeated measurements.  The median and the
   quartiles follow Python's [statistics.median] and
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so a spread
   computed here matches one computed from the printed values by any
   external script; the tail is a nearest-rank percentile. *)

type t = {
  n : int;
  median : float;
  q1 : float;
  q3 : float;
  tail_pct : float option;
      (** the highest of p90 / p99 / p99.9 with at least ten samples
          beyond it *)
  tail : float option;
}

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* statistics.quantiles(method="exclusive"): m = n + 1, cut point i of
   four sits at rank i*m/4, linearly interpolated; below two samples
   every quartile is the single value. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (0., 0.)
  else if n = 1 then (a.(0), a.(0))
  else
    let cut i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (cut 1, cut 3)

let tail xs =
  let n = float_of_int (List.length xs) in
  List.find_map
    (fun p ->
      if n *. (1. -. (p /. 100.)) >= 10. then Some (p, Sttc_util.Stats.percentile p xs)
      else None)
    [ 99.9; 99.; 90. ]

let of_list xs =
  let q1, q3 = quartiles xs in
  let tail_pct, tail =
    match tail xs with Some (p, v) -> (Some p, Some v) | None -> (None, None)
  in
  { n = List.length xs; median = median xs; q1; q3; tail_pct; tail }

(* (q3 - q1) / median: the spread the regression bounds are judged by *)
let rel_iqr s = if s.median = 0. then 0. else (s.q3 -. s.q1) /. Float.abs s.median

let to_json s =
  let module J = Sttc_obs.Json in
  J.Obj
    ([ ("n", J.Int s.n); ("median", J.Float s.median); ("q1", J.Float s.q1);
       ("q3", J.Float s.q3) ]
    @
    match (s.tail_pct, s.tail) with
    | Some p, Some v -> [ ("tail_pct", J.Float p); ("tail", J.Float v) ]
    | _ -> [])
