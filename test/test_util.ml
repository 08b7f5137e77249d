(* Unit and property tests for Sttc_util: Lognum, Rng, Stats, Growable,
   Timing, Budget, Pool, Table. *)

module Lognum = Sttc_util.Lognum
module Rng = Sttc_util.Rng
module Stats = Sttc_util.Stats
module Growable = Sttc_util.Growable
module Timing = Sttc_util.Timing
module Table = Sttc_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_close msg expected got =
  Alcotest.(check (float (Float.abs expected *. 1e-9 +. 1e-12))) msg expected got

(* ---------- Lognum ---------- *)

(* Lognum values are read back through their logarithm *)
let check_log msg expected got = check_close msg (log10 expected) (Lognum.log10 got)
let is_zero x = Lognum.log10 x = neg_infinity
let zero = Lognum.sum [] and one = Lognum.prod []

let test_lognum_basics () =
  check_float "one" 0. (Lognum.log10 one);
  check_log "of_float" 42. (Lognum.of_float 42.);
  Alcotest.(check bool) "zero is zero" true (is_zero zero);
  Alcotest.(check bool) "of_float 0 is zero" true (is_zero (Lognum.of_float 0.))

let test_lognum_mul () =
  let a = Lognum.of_float 6. and b = Lognum.of_float 7. in
  check_log "6*7" 42. (Lognum.mul a b);
  Alcotest.(check bool) "x*0 = 0" true (is_zero (Lognum.mul a zero))

let test_lognum_add () =
  let a = Lognum.of_float 1.5 and b = Lognum.of_float 2.5 in
  check_log "1.5+2.5" 4. (Lognum.sum [ a; b ]);
  check_log "x+0" 1.5 (Lognum.sum [ a; zero ]);
  check_log "0+x" 2.5 (Lognum.sum [ zero; b ])

let test_lognum_pow () =
  check_log "2^10" 1024. (Lognum.pow (Lognum.of_int 2) 10);
  check_log "x^0" 1. (Lognum.pow (Lognum.of_float 9.) 0);
  Alcotest.(check bool) "0^5 = 0" true (is_zero (Lognum.pow zero 5));
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Lognum.pow: negative exponent") (fun () ->
      ignore (Lognum.pow one (-1)))

let test_lognum_div () =
  check_log "42/6" 7. (Lognum.div (Lognum.of_float 42.) (Lognum.of_float 6.));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Lognum.div one zero))

let test_lognum_huge () =
  (* the s38584 figure from the paper: 6.07e219 must survive a product *)
  let n = Lognum.prod (List.init 166 (fun _ -> Lognum.of_float 21.2)) in
  let e = Lognum.log10 n in
  Alcotest.(check bool) "exponent around 220" true (e > 200. && e < 240.);
  (* beyond float range *)
  let big = Lognum.pow (Lognum.of_int 10) 1000 in
  check_float "log10 of 10^1000" 1000. (Lognum.log10 big);
  Alcotest.(check string) "printed" "1.00E+1000" (Lognum.to_string big)

let test_lognum_to_string () =
  Alcotest.(check string) "zero" "0" (Lognum.to_string zero);
  Alcotest.(check string) "small int" "42" (Lognum.to_string (Lognum.of_int 42));
  Alcotest.(check string) "sci" "6.07E+219"
    (Lognum.to_string (Lognum.mul (Lognum.of_float 6.07) (Lognum.pow (Lognum.of_int 10) 219)));
  (* mantissa rounding to 10.0 must carry into the exponent *)
  Alcotest.(check string) "carry" "1.00E+10"
    (Lognum.to_string (Lognum.mul (Lognum.of_float 9.9999) (Lognum.pow (Lognum.of_int 10) 9)))

let test_lognum_compare () =
  let a = Lognum.of_float 3. and b = Lognum.of_float 4. in
  check_log "max" 4. (Lognum.max a b);
  check_log "max commutes" 4. (Lognum.max b a);
  check_log "max with zero" 3. (Lognum.max zero a)

let test_lognum_years () =
  (* 1e9 clocks at 1e9/s = 1 second = 3.17e-8 years *)
  let y = Lognum.clocks_to_years ~rate_hz:1e9 (Lognum.of_float 1e9) in
  check_log "one second in years" (1. /. (365.25 *. 24. *. 3600.)) y

let lognum_props =
  let pos_float = QCheck2.Gen.map (fun x -> Float.abs x +. 1e-6) QCheck2.Gen.float in
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"lognum mul matches float" ~count:500
         QCheck2.Gen.(pair pos_float pos_float)
         (fun (a, b) ->
           QCheck2.assume (a < 1e100 && b < 1e100 && a > 1e-100 && b > 1e-100);
           let got = 10. ** Lognum.log10 Lognum.(of_float a * of_float b) in
           let expected = a *. b in
           Float.abs (got -. expected) <= 1e-9 *. Float.abs expected));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"lognum add matches float" ~count:500
         QCheck2.Gen.(pair pos_float pos_float)
         (fun (a, b) ->
           QCheck2.assume (a < 1e100 && b < 1e100 && a > 1e-100 && b > 1e-100);
           let got = 10. ** Lognum.log10 Lognum.(sum [ of_float a; of_float b ]) in
           let expected = a +. b in
           Float.abs (got -. expected) <= 1e-9 *. Float.abs expected));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"lognum add commutative" ~count:500
         QCheck2.Gen.(pair pos_float pos_float)
         (fun (a, b) ->
           let x = Lognum.of_float a and y = Lognum.of_float b in
           Float.abs
             (Lognum.log10 (Lognum.sum [ x; y ]) -. Lognum.log10 (Lognum.sum [ y; x ]))
           <= 1e-12));
  ]

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.make 1 and b = Rng.make 1 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.make 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.make 3 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "float in range" true (v >= 0. && v < 2.5)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.make 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_rng_sample_distinct () =
  let rng = Rng.make 13 in
  let arr = Array.init 30 Fun.id in
  let s = Rng.sample rng 10 arr in
  Alcotest.(check int) "size" 10 (Array.length s);
  let module Int_set = Set.Make (Int) in
  Alcotest.(check int) "distinct" 10
    (Int_set.cardinal (Int_set.of_list (Array.to_list s)));
  (* oversampling clamps *)
  Alcotest.(check int) "clamped" 30 (Array.length (Rng.sample rng 100 arr))

let test_rng_uniformity () =
  (* coarse chi-square-free check: each bucket within 20 % of expectation *)
  let rng = Rng.make 99 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let v = Rng.int rng 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform" i)
        true
        (abs (c - expected) < expected / 5))
    buckets

(* The exact stream of [make 42], recorded before the state moved from a
   boxed [int64] field into [Bytes].  Every seeded result in the repository
   (generated netlists, selections, attack patterns) hangs off this
   stream, so a representation change must reproduce it draw for draw. *)
let test_rng_pinned_stream () =
  let r = Rng.make 42 in
  let ints n rng bound = List.init n (fun _ -> Rng.int rng bound) in
  Alcotest.(check (list int)) "int" [ 853; 72; 964; 941; 812; 265 ]
    (ints 6 r 1000);
  Alcotest.(check (list int64)) "int64"
    [ 4028864712777624925L; -3677692746721775708L; 6270620877612482005L ]
    (List.init 3 (fun _ -> Rng.int64 r));
  Alcotest.(check (list (float 0.))) "float"
    [ 0x1.3ca9ae7052feep-1; 0x1.a3a39253bad8cp-3; 0x1.f8d2283914594p-2 ]
    (List.init 3 (fun _ -> Rng.float r 1.0));
  Alcotest.(check (list bool)) "bool"
    [ false; true; false; false; true; true; true; false ]
    (List.init 8 (fun _ -> Rng.bool r));
  Alcotest.(check int64) "int64 after bool" (-787210419263134744L) (Rng.int64 r);
  Alcotest.(check (list int)) "int after int64"
    [ 910; 981; 732; 188; 596; 749; 247; 65 ]
    (ints 8 r 1000);
  let arr = Array.init 10 Fun.id in
  Rng.shuffle r arr;
  Alcotest.(check (array int)) "shuffle" [| 9; 3; 4; 8; 1; 5; 0; 7; 6; 2 |] arr;
  Alcotest.(check (array int)) "sample" [| 16; 1; 4; 17 |]
    (Rng.sample r 4 (Array.init 20 Fun.id))

(* ---------- Stats ---------- *)

let test_stats_mean () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "empty mean" 0. (Stats.mean [])

let test_stats_percentile_nan () =
  Alcotest.check_raises "NaN p"
    (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile nan [ 1.; 2. ]))

let test_stats_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ] in
  check_float "median" 5. (Stats.percentile 50. xs);
  check_float "p100" 10. (Stats.percentile 100. xs);
  check_float "p10" 1. (Stats.percentile 10. xs);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty")
    (fun () -> ignore (Stats.percentile 50. []))

let test_stats_overhead () =
  check_float "overhead" 50. (Stats.relative_overhead ~base:2. ~modified:3.);
  check_float "zero base" 0. (Stats.relative_overhead ~base:0. ~modified:3.);
  check_float "improvement" (-25.)
    (Stats.relative_overhead ~base:4. ~modified:3.)

(* ---------- Growable ---------- *)

let test_growable_push_get () =
  let g = Growable.create () in
  for i = 0 to 99 do
    Alcotest.(check int) "index" i (Growable.push g (i * 2))
  done;
  Alcotest.(check int) "length" 100 (Growable.length g);
  Alcotest.(check int) "get" 84 (Growable.get g 42);
  Alcotest.(check int) "to_list" 198 (List.nth (Growable.to_list g) 99)

let growable_of_list l =
  let g = Growable.create () in
  List.iter (fun x -> ignore (Growable.push g x)) l;
  g

let test_growable_pop () =
  let g = growable_of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "pop" 3 (Growable.pop g);
  Alcotest.(check int) "last" 2 (Growable.last g);
  Alcotest.(check int) "len" 2 (Growable.length g);
  ignore (Growable.pop g);
  ignore (Growable.pop g);
  Alcotest.(check bool) "empty" true (Growable.is_empty g);
  Alcotest.check_raises "pop empty" (Invalid_argument "Growable.pop: empty")
    (fun () -> ignore (Growable.pop g))

let test_growable_bounds () =
  let g = growable_of_list [ 1 ] in
  Alcotest.check_raises "oob get" (Invalid_argument "Growable.get: index")
    (fun () -> ignore (Growable.get g 1));
  Alcotest.check_raises "negative get" (Invalid_argument "Growable.get: index")
    (fun () -> ignore (Growable.get g (-1)));
  Alcotest.check_raises "last empty" (Invalid_argument "Growable.last: empty")
    (fun () -> ignore (Growable.last (Growable.create ())))

(* ---------- Timing ---------- *)

let test_timing_format () =
  Alcotest.(check string) "zero" "00:00.0" (Timing.format_min_sec 0.);
  Alcotest.(check string) "75.5s" "01:15.5" (Timing.format_min_sec 75.5);
  Alcotest.(check string) "44s" "00:44.0" (Timing.format_min_sec 44.0);
  Alcotest.check_raises "negative"
    (Invalid_argument "Timing.format_min_sec: negative") (fun () ->
      ignore (Timing.format_min_sec (-1.)))

let test_timing_time () =
  let x, dt = Timing.time (fun () -> 42) in
  Alcotest.(check int) "result" 42 x;
  Alcotest.(check bool) "non-negative" true (dt >= 0.);
  (* one clock for elapsed times and budgets, and it never steps back *)
  let prev = ref (Timing.now_s ()) in
  for _ = 1 to 1000 do
    let t = Sttc_util.Pool.now_s () in
    let t' = Timing.now_s () in
    Alcotest.(check bool) "monotonic" true (!prev <= t && t <= t');
    prev := t'
  done

(* ---------- Pool ---------- *)

module Pool = Sttc_util.Pool

let test_pool_map_orders_results () =
  let items = List.init 97 Fun.id in
  Alcotest.(check (list int))
    "submission order kept"
    (List.map (fun x -> (2 * x) + 1) items)
    (Pool.map ~jobs:3 (fun x -> (2 * x) + 1) items)

let test_pool_single_worker_matches_serial () =
  let items = List.init 23 (fun i -> i * i) in
  let serial = List.map string_of_int items in
  Alcotest.(check (list string))
    "jobs=1 equals List.map" serial
    (Pool.map ~jobs:1 string_of_int items)

let test_pool_captures_exceptions () =
  let ran = Atomic.make 0 in
  (match
     Pool.map ~jobs:2
       (fun x -> if x mod 10 = 3 then failwith "boom" else Atomic.incr ran)
       (List.init 30 Fun.id)
   with
  | _ -> Alcotest.fail "must raise"
  | exception Pool.Task_error e ->
      Alcotest.(check int) "first failing index" 3 e.Pool.index;
      Alcotest.(check string) "message captured" "Failure(\"boom\")"
        e.Pool.exn);
  (* the failures abort no other task *)
  Alcotest.(check int) "27 successes" 27 (Atomic.get ran)

let test_pool_map_raises_first_error () =
  (match
     Pool.map ~jobs:2
       (fun x -> if x >= 5 then raise Exit else x)
       (List.init 9 Fun.id)
   with
  | _ -> Alcotest.fail "must raise"
  | exception Pool.Task_error e ->
      Alcotest.(check int) "smallest failing index" 5 e.Pool.index);
  (* a serial bag raises the task's own exception on the calling domain *)
  Alcotest.check_raises "serial bag" Exit (fun () ->
      ignore (Pool.map ~jobs:1 (fun x -> if x >= 5 then raise Exit) [ 4; 5 ]))

let test_pool_empty_and_chunked () =
  Alcotest.(check (list int))
    "empty bag" []
    (Pool.map ~chunk:2 ~jobs:3 Fun.id []);
  Alcotest.(check (list int))
    "chunked bag keeps order"
    (List.init 11 Fun.id)
    (Pool.map ~chunk:2 ~jobs:3 Fun.id (List.init 11 Fun.id))

(* the bag runs on the calling domain unless jobs, the item count and
   the work estimate all pay for spawning domains *)
let test_pool_map_picks_serial_or_pooled () =
  let caller = Domain.self () in
  let on_caller ?work ~jobs n =
    List.for_all
      (fun d -> d = caller)
      (Pool.map ?work ~jobs (fun _ -> Domain.self ()) (List.init n Fun.id))
  in
  (* one worker or one task can never beat the serial loop *)
  Alcotest.(check bool) "jobs=1" true (on_caller ~jobs:1 100);
  Alcotest.(check bool) "jobs=0" true (on_caller ~jobs:0 100);
  Alcotest.(check bool) "single task" true (on_caller ~jobs:4 1);
  (* the work estimate gates fan-out at 1 *)
  Alcotest.(check bool) "below the threshold" true
    (on_caller ~work:0.999 ~jobs:4 8);
  Alcotest.(check bool) "at the threshold" false (on_caller ~work:1. ~jobs:4 8);
  (* callers with no estimate rely on the task count *)
  Alcotest.(check bool) "unknown work fans out" false (on_caller ~jobs:2 2)

(* ---------- Budget ---------- *)

module Budget = Sttc_util.Budget

(* spin until [seconds] have passed, polling the budget on the way *)
let spin seconds =
  let stop = Pool.now_s () +. seconds in
  while Pool.now_s () < stop do
    Budget.check ()
  done

let test_budget_run () =
  (match Budget.run ~seconds:5. (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "fast f returns" 42 v
  | Error `Timeout -> Alcotest.fail "must not time out");
  (match Budget.run ~seconds:0. (fun () -> Alcotest.fail "ran at zero budget") with
  | Ok () -> Alcotest.fail "zero budget must refuse to run"
  | Error `Timeout -> ());
  (match Budget.run ~seconds:0.02 (fun () -> spin 5.) with
  | Ok () -> Alcotest.fail "the poll must abandon the spin"
  | Error `Timeout -> ());
  (* a body that returns past its deadline without polling still times out *)
  (match Budget.run ~seconds:0.01 (fun () -> Unix.sleepf 0.03) with
  | Ok () -> Alcotest.fail "late return must time out"
  | Error `Timeout -> ());
  (* exceptions propagate, they are not misreported as timeouts *)
  Alcotest.(check bool) "exception escapes" true
    (try
       ignore (Budget.run ~seconds:5. (fun () -> failwith "boom"));
       false
     with Failure m -> m = "boom");
  (* outside any budget the poll is harmless *)
  Budget.check ()

let test_budget_nesting () =
  (* the inner budget takes the min of its own and the outer deadline *)
  let t0 = Pool.now_s () in
  let inner = ref None in
  let outer =
    Budget.run ~seconds:0.05 (fun () ->
        inner := Some (Budget.run ~seconds:10. (fun () -> spin 5.)))
  in
  Alcotest.(check bool) "outer fired" true (outer = Error `Timeout);
  Alcotest.(check bool) "inner cut at the outer deadline" true
    (!inner = Some (Error `Timeout) && Pool.now_s () -. t0 < 1.);
  (* a shorter inner budget fires first; the outer one still fires *)
  match
    Budget.run ~seconds:0.1 (fun () ->
        let inner = Budget.run ~seconds:0.01 (fun () -> spin 5.) in
        Alcotest.(check bool) "inner fired" true (inner = Error `Timeout);
        spin 5.)
  with
  | Ok () -> Alcotest.fail "outer budget must still fire"
  | Error `Timeout -> ()

let test_budget_pool_inheritance () =
  List.iter
    (fun jobs ->
      let t0 = Pool.now_s () in
      (match
         Budget.run ~seconds:0.05 (fun () ->
             Pool.map ~jobs (fun slow -> if slow then spin 5.) [ true; false ])
       with
      | Ok _ -> Alcotest.failf "-j%d: task must inherit the deadline" jobs
      | Error `Timeout -> ());
      Alcotest.(check bool)
        (Printf.sprintf "-j%d: bag abandoned at the deadline" jobs)
        true
        (Pool.now_s () -. t0 < 1.);
      (* no budget installed: tasks run to completion *)
      Alcotest.(check (list int))
        (Printf.sprintf "-j%d: unbudgeted bag" jobs)
        [ 1; 2 ]
        (Pool.map ~jobs (fun x -> x) [ 1; 2 ]))
    [ 1; 4 ]

(* ---------- Table ---------- *)

let test_table_render () =
  let t = Table.create ~headers:[ ("A", Table.Left); ("B", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0
    && Option.is_some (String.index_opt s 'A'));
  (* row arity is checked *)
  Alcotest.check_raises "bad arity" (Invalid_argument "Table.add_row: wrong arity")
    (fun () -> Table.add_row t [ "only-one" ])

let test_table_alignment () =
  let t = Table.create ~headers:[ ("N", Table.Right) ] in
  Table.add_row t [ "7" ];
  Table.add_row t [ "123" ];
  let lines = String.split_on_char '\n' (Table.render t) in
  (* the "7" must be right-aligned: padded on the left *)
  let row7 = List.find (fun l -> String.length l > 0 && String.contains l '7' && not (String.contains l '1')) lines in
  Alcotest.(check bool) "right aligned" true
    (Option.is_some (String.index_opt row7 ' '))

let () =
  Alcotest.run "sttc_util"
    [
      ( "lognum",
        [
          Alcotest.test_case "basics" `Quick test_lognum_basics;
          Alcotest.test_case "mul" `Quick test_lognum_mul;
          Alcotest.test_case "add" `Quick test_lognum_add;
          Alcotest.test_case "pow" `Quick test_lognum_pow;
          Alcotest.test_case "div" `Quick test_lognum_div;
          Alcotest.test_case "huge values" `Quick test_lognum_huge;
          Alcotest.test_case "to_string" `Quick test_lognum_to_string;
          Alcotest.test_case "compare" `Quick test_lognum_compare;
          Alcotest.test_case "years conversion" `Quick test_lognum_years;
        ]
        @ lognum_props );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "sample distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "coarse uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile NaN guard" `Quick
            test_stats_percentile_nan;
          Alcotest.test_case "relative overhead" `Quick test_stats_overhead;
        ] );
      ( "growable",
        [
          Alcotest.test_case "push/get" `Quick test_growable_push_get;
          Alcotest.test_case "pop/last" `Quick test_growable_pop;
          Alcotest.test_case "bounds" `Quick test_growable_bounds;
        ] );
      ( "timing",
        [
          Alcotest.test_case "format_min_sec" `Quick test_timing_format;
          Alcotest.test_case "time" `Quick test_timing_time;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick
            test_pool_map_orders_results;
          Alcotest.test_case "jobs=1 matches serial" `Quick
            test_pool_single_worker_matches_serial;
          Alcotest.test_case "exceptions captured per task" `Quick
            test_pool_captures_exceptions;
          Alcotest.test_case "map raises first error" `Quick
            test_pool_map_raises_first_error;
          Alcotest.test_case "empty and chunked bags" `Quick
            test_pool_empty_and_chunked;
          Alcotest.test_case "map picks serial or pooled work" `Quick
            test_pool_map_picks_serial_or_pooled;
        ] );
      ( "budget",
        [
          Alcotest.test_case "fast, zero and raising bodies" `Quick
            test_budget_run;
          Alcotest.test_case "nesting takes the min" `Quick test_budget_nesting;
          Alcotest.test_case "inherited through Pool.map" `Quick
            test_budget_pool_inheritance;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
        ] );
    ]
