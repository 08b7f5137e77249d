(* Tests for the lib/obs observability subsystem: the JSON codec, the
   span/metrics recorders (including their disabled fast path and their
   cross-domain merge semantics), the exporters and their validators,
   and the Pool probe wiring. *)

module Obs = Sttc_obs.Obs
module Json = Sttc_obs.Json
module Span = Sttc_obs.Span
module Metrics = Sttc_obs.Metrics
module Export = Sttc_obs.Export
module Build_info = Sttc_obs.Build_info
module Pool = Sttc_util.Pool

(* Every test leaves the global recorder off and empty, whatever
   happens inside. *)
let recording f () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* ---------- Json ---------- *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("yes", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("s", Json.String "a \"quoted\" line\nwith\ttabs \\ and slashes");
      ("l", Json.List [ Json.Int 1; Json.Int 2; Json.Obj [] ]);
    ]

let test_json_round_trip () =
  List.iter
    (fun minify ->
      match Json.of_string (Json.to_string ~minify sample_json) with
      | Ok j ->
          Alcotest.(check bool)
            (Printf.sprintf "round trip (minify=%b)" minify)
            true (j = sample_json)
      | Error e -> Alcotest.fail ("parse of own output failed: " ^ e))
    [ true; false ]

let test_json_unicode_escapes () =
  (* UTF-8 carried verbatim, standard escapes decoded *)
  (match Json.of_string {|"ABé\n"|} with
  | Ok (Json.String s) -> Alcotest.(check string) "decoded" "AB\xc3\xa9\n" s
  | Ok _ -> Alcotest.fail "not a string"
  | Error e -> Alcotest.fail e);
  (* \uXXXX escapes decode to UTF-8 bytes, a surrogate pair to the one
     4-byte sequence of its code point (U+1F600) *)
  List.iter
    (fun (text, bytes) ->
      match Json.of_string text with
      | Ok (Json.String s) -> Alcotest.(check string) text bytes s
      | Ok _ -> Alcotest.fail "not a string"
      | Error e -> Alcotest.fail e)
    [
      ({|"\u0041\u00e9"|}, "A\xc3\xa9");
      ({|"\u20AC"|}, "\xe2\x82\xac");
      ({|"\ud83d\ude00"|}, "\xf0\x9f\x98\x80");
      ({|"\uD800\uDC00"|}, "\xf0\x90\x80\x80");
    ]

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed input: " ^ bad))
    [
      "tru";
      "{";
      "[1,]";
      "{\"a\":1,}";
      "1 x";
      "";
      "\"unterminated";
      (* a lone surrogate is no code point *)
      {|"\ud800"|};
      {|"\ud800x"|};
      {|"\ud800\u0041"|};
      {|"\udc00"|};
      (* \u takes exactly four hex digits *)
      {|"\u0_41"|};
      (* a number beyond the float range cannot be printed back *)
      "[1e400]";
      "-1e400";
      "{\"x\": 1e999}";
    ]

(* Numbers follow RFC 8259: no leading plus, no leading zero, digits on
   both sides of a decimal point.  OCaml's own conversions accept all of
   the rejected forms below. *)
let test_json_numbers () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error e ->
          Alcotest.(check bool)
            (bad ^ " names the number") true
            (String.ends_with ~suffix:("invalid number " ^ bad) e)
      | Ok _ -> Alcotest.fail ("accepted malformed number: " ^ bad))
    [ "+5"; "01"; "1."; ".5"; "+.5e-1"; "-"; "-01"; "1e"; "1.e5"; "1e+" ];
  List.iter
    (fun (text, v) ->
      match Json.of_string text with
      | Ok got -> Alcotest.(check bool) text true (got = v)
      | Error e -> Alcotest.fail (text ^ ": " ^ e))
    [
      ("-0", Json.Int 0);
      ("1e+20", Json.Float 1e20);
      ("1.5E-3", Json.Float 1.5e-3);
      ("0.0", Json.Float 0.);
      ( "[-12.5e2, 0, 7]",
        Json.List [ Json.Float (-1250.); Json.Int 0; Json.Int 7 ] );
    ]

(* For generated values, the reader accepts what the printer writes and
   the result prints back to the same bytes.  Strings carry quotes,
   backslashes, control bytes and non-ASCII bytes; floats are finite. *)
let prop_json_round_trip =
  let open QCheck2.Gen in
  let byte =
    oneof
      [
        oneofl [ '"'; '\\'; '/'; '\n'; '\t'; '\000'; '\031'; '\127' ];
        char_range ' ' '~';
        char_range '\128' '\255';
      ]
  in
  let str = string_size ~gen:byte (int_bound 12) in
  let finite = map (fun f -> if Float.is_finite f then f else 0.) float in
  let value =
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) finite;
                 map (fun s -> Json.String s) str;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 4))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_bound 4) (pair str (self (n / 4)))) );
               ])
  in
  QCheck2.Test.make ~name:"round trip of generated values" ~count:500
    (pair value bool)
    (fun (v, minify) ->
      let text = Json.to_string ~minify v in
      match Json.of_string text with
      | Ok v' -> Json.to_string ~minify v' = text
      | Error _ -> false)

let test_json_accessors () =
  Alcotest.(check (option int))
    "member int" (Some (-42))
    (Option.bind (Json.member "n" sample_json) Json.to_int_opt);
  Alcotest.(check (option (float 1e-9)))
    "to_float_opt accepts Int" (Some (-42.))
    (Option.bind (Json.member "n" sample_json) Json.to_float_opt);
  Alcotest.(check bool)
    "missing member" true
    (Json.member "absent" sample_json = None);
  Alcotest.(check (option int))
    "list length" (Some 3)
    (Option.map List.length
       (Option.bind (Json.member "l" sample_json) Json.to_list_opt))

let test_json_rejects_nan () =
  Alcotest.(check bool)
    "nan raises" true
    (match Json.to_string (Json.Float Float.nan) with
    | (_ : string) -> false
    | exception Invalid_argument _ -> true)

(* ---------- disabled fast path ---------- *)

let test_disabled_records_nothing () =
  Obs.reset ();
  Alcotest.(check bool) "off by default" false (Obs.enabled ());
  let r = Span.with_ "t.off" (fun () -> 7) in
  Span.instant "t.off_instant";
  Metrics.incr "t.off_counter";
  Metrics.observe "t.off_hist" 1.;
  Alcotest.(check int) "thunk result passes through" 7 r;
  Alcotest.(check int) "no spans" 0 (List.length (Span.events ()));
  Alcotest.(check int) "no series" 0 (List.length (Metrics.snapshot ()))

(* ---------- spans ---------- *)

(* [Span.event]'s payloads are inline records, which cannot escape
   their constructor — copy the fields the assertions need. *)
type span_view = {
  ts_us : float;
  dur_us : float;
  depth : int;
  parent : string option;
  attrs : (string * string) list;
}

let find_span name events =
  List.find_map
    (function
      | Span.Complete c when c.name = name ->
          Some
            {
              ts_us = c.ts_us;
              dur_us = c.dur_us;
              depth = c.depth;
              parent = c.parent;
              attrs = c.attrs;
            }
      | Span.Complete _ | Span.Instant _ -> None)
    events

let test_span_nesting =
  recording (fun () ->
      let v =
        Span.with_ "t.outer" ~attrs:[ ("k", "v") ] (fun () ->
            Span.with_ "t.inner" (fun () -> 5))
      in
      Alcotest.(check int) "result" 5 v;
      let evs = Span.events () in
      match (find_span "t.outer" evs, find_span "t.inner" evs) with
      | Some o, Some i ->
          Alcotest.(check int) "outer depth" 0 o.depth;
          Alcotest.(check bool) "outer has no parent" true (o.parent = None);
          Alcotest.(check int) "inner depth" 1 i.depth;
          Alcotest.(check bool) "inner parent" true (i.parent = Some "t.outer");
          Alcotest.(check bool)
            "inner starts after outer" true
            (i.ts_us >= o.ts_us);
          Alcotest.(check bool)
            "inner contained" true
            (i.ts_us +. i.dur_us <= o.ts_us +. o.dur_us +. 1e-6);
          Alcotest.(check bool) "attrs kept" true (o.attrs = [ ("k", "v") ])
      | _ -> Alcotest.fail "spans not recorded")

let test_span_records_on_exception =
  recording (fun () ->
      (match Span.with_ "t.boom" (fun () -> failwith "boom") with
      | () -> Alcotest.fail "should have raised"
      | exception Failure _ -> ());
      Alcotest.(check bool)
        "span recorded despite raise" true
        (find_span "t.boom" (Span.events ()) <> None))

let test_span_instant =
  recording (fun () ->
      Span.instant "t.mark" ~attrs:[ ("rows", "3") ];
      let found =
        List.exists
          (function
            | Span.Instant i -> i.name = "t.mark" && i.attrs = [ ("rows", "3") ]
            | Span.Complete _ -> false)
          (Span.events ())
      in
      Alcotest.(check bool) "instant recorded" true found)

(* ---------- metrics ---------- *)

let test_metrics_cross_domain_merge =
  recording (fun () ->
      Metrics.incr ~by:2 "t.cross";
      Metrics.set_gauge "t.level" 1.;
      let ds =
        List.init 2 (fun k ->
            Domain.spawn (fun () ->
                Metrics.incr ~by:5 "t.cross";
                Metrics.set_gauge "t.level" (float_of_int (3 + k))))
      in
      List.iter Domain.join ds;
      let snap = Metrics.snapshot () in
      Alcotest.(check int)
        "counters sum across domains" 12
        (Metrics.counter_value snap "t.cross");
      match Metrics.find snap "t.level" with
      | Some (Metrics.Gauge g) ->
          Alcotest.(check (float 1e-9)) "gauges merge as max" 4. g
      | _ -> Alcotest.fail "gauge series missing")

let test_metrics_peak_gauge =
  recording (fun () ->
      Metrics.peak_gauge "t.peak" 2.;
      Metrics.peak_gauge "t.peak" 9.;
      Metrics.peak_gauge "t.peak" 4.;
      match Metrics.find (Metrics.snapshot ()) "t.peak" with
      | Some (Metrics.Gauge g) ->
          Alcotest.(check (float 1e-9)) "high-water mark" 9. g
      | _ -> Alcotest.fail "gauge series missing")

let test_metrics_histogram =
  recording (fun () ->
      (* lowest bucket, two mid-grid samples, one overflow (> 1e3) *)
      List.iter (Metrics.observe "t.h") [ 0.; 0.5; 2.; 5000. ];
      match Metrics.find (Metrics.snapshot ()) "t.h" with
      | Some (Metrics.Histogram h) ->
          Alcotest.(check int) "count" 4 h.Metrics.count;
          Alcotest.(check (float 1e-9)) "sum" 5002.5 h.Metrics.sum;
          Alcotest.(check (float 1e-9)) "min" 0. h.Metrics.min;
          Alcotest.(check (float 1e-9)) "max" 5000. h.Metrics.max;
          Alcotest.(check int) "overflow" 1 h.Metrics.overflow;
          let in_buckets =
            List.fold_left (fun a (_, n) -> a + n) 0 h.Metrics.buckets
          in
          Alcotest.(check int)
            "buckets + overflow = count" h.Metrics.count
            (in_buckets + h.Metrics.overflow);
          let bounds = List.map fst h.Metrics.buckets in
          let rec increasing = function
            | a :: (b :: _ as rest) -> a < b && increasing rest
            | [ _ ] | [] -> true
          in
          Alcotest.(check bool)
            "bounds strictly increasing" true (increasing bounds)
      | _ -> Alcotest.fail "histogram series missing")

let test_metrics_snapshot_sorted =
  recording (fun () ->
      Metrics.incr "t.zz";
      Metrics.incr "t.aa";
      Metrics.incr "t.mm";
      let names = List.map fst (Metrics.snapshot ()) in
      Alcotest.(check (list string))
        "sorted by name"
        (List.sort compare names)
        names)

(* ---------- export / validate ---------- *)

let test_export_round_trip =
  recording (fun () ->
      Span.with_ "t.a" (fun () -> Span.with_ "t.b" (fun () -> ()));
      Span.instant "t.i";
      Metrics.incr "t.c";
      Metrics.observe "t.h" 0.25;
      (match Export.validate_trace (Export.trace_json ()) with
      | Ok n -> Alcotest.(check int) "span count" 2 n
      | Error e -> Alcotest.fail ("trace invalid: " ^ e));
      match Export.validate_metrics ~min_series:2 (Export.metrics_json ()) with
      | Ok n -> Alcotest.(check int) "series count" 2 n
      | Error e -> Alcotest.fail ("metrics invalid: " ^ e))

let test_export_files =
  recording (fun () ->
      Span.with_ "t.file" (fun () -> ());
      Metrics.incr "t.file_counter";
      let tf = Filename.temp_file "sttc_trace" ".json" in
      let mf = Filename.temp_file "sttc_metrics" ".json" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove tf;
          Sys.remove mf)
        (fun () ->
          Obs.write_trace tf;
          Sttc_obs.Export.write_file mf (Sttc_obs.Export.metrics_json ());
          (match Obs.validate_trace_file tf with
          | Ok n -> Alcotest.(check int) "file span count" 1 n
          | Error e -> Alcotest.fail e);
          match Obs.validate_metrics_file ~min_series:1 mf with
          | Ok n -> Alcotest.(check int) "file series count" 1 n
          | Error e -> Alcotest.fail e))

let test_validators_reject_garbage () =
  Alcotest.(check bool)
    "empty object is not a trace" true
    (Result.is_error (Export.validate_trace (Json.Obj [])));
  Alcotest.(check bool)
    "missing meta is not a metrics file" true
    (Result.is_error
       (Export.validate_metrics (Json.Obj [ ("metrics", Json.Obj []) ])));
  Alcotest.(check bool)
    "min_series enforced" true
    (Result.is_error
       (Export.validate_metrics ~min_series:1
          (Json.Obj
             [
               ( "meta",
                 Export.metrics_json () |> Json.member "meta"
                 |> Option.value ~default:Json.Null );
               ("metrics", Json.Obj []);
             ])))

(* An overlapping-but-not-nested pair on one track must be rejected:
   that is the invariant the per-domain buffers guarantee. *)
let test_validator_rejects_bad_nesting () =
  let ev name ts dur =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "t");
        ("ph", Json.String "X");
        ("ts", Json.Float ts);
        ("dur", Json.Float dur);
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
      ]
  in
  let meta =
    Export.trace_json () |> Json.member "otherData"
    |> Option.value ~default:Json.Null
  in
  let doc events =
    Json.Obj [ ("traceEvents", Json.List events); ("otherData", meta) ]
  in
  Alcotest.(check bool)
    "proper nesting accepted" true
    (Result.is_ok (Export.validate_trace (doc [ ev "a" 0. 10.; ev "b" 2. 3. ])));
  Alcotest.(check bool)
    "partial overlap rejected" true
    (Result.is_error
       (Export.validate_trace (doc [ ev "a" 0. 10.; ev "b" 5. 10. ])))

(* ---------- build info ---------- *)

let contains_substring text sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
  in
  go 0

let test_build_info () =
  Alcotest.(check bool)
    "version non-empty" true
    (String.length Build_info.version > 0);
  let fields = Build_info.to_fields () in
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
    [ "tool"; "version"; "commit"; "ocaml" ];
  Alcotest.(check bool)
    "to_text mentions version" true
    (contains_substring (Build_info.to_text ()) Build_info.version)

(* ---------- pool probe ---------- *)

let test_pool_probe =
  recording (fun () ->
      Obs.attach_pool ();
      Fun.protect ~finally:Obs.detach_pool (fun () ->
          Pool.with_pool ~jobs:2 (fun pool ->
              let out =
                Pool.map_exn pool (fun x -> x * x) (List.init 64 Fun.id)
              in
              Alcotest.(check int) "results intact" 64 (List.length out));
          let snap = Metrics.snapshot () in
          Alcotest.(check int)
            "one submission" 1
            (Metrics.counter_value snap "pool.submits");
          Alcotest.(check int)
            "all tasks counted" 64
            (Metrics.counter_value snap "pool.tasks");
          Alcotest.(check bool)
            "chunks counted" true
            (Metrics.counter_value snap "pool.chunks" > 0);
          let chunk_spans =
            List.length
              (List.filter
                 (function
                   | Span.Complete c -> c.name = "pool.chunk"
                   | Span.Instant _ -> false)
                 (Span.events ()))
          in
          Alcotest.(check int)
            "one span per chunk"
            (Metrics.counter_value snap "pool.chunks")
            chunk_spans))

(* ---------- with_run ---------- *)

let test_with_run_noop_when_unrequested () =
  Obs.reset ();
  let r = Obs.with_run (fun () -> Obs.enabled ()) in
  Alcotest.(check bool) "stays disabled" false r

let test_with_run_exports_and_resets () =
  Obs.reset ();
  let tf = Filename.temp_file "sttc_run_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tf)
    (fun () ->
      Obs.with_run ~trace:tf (fun () ->
          Alcotest.(check bool) "enabled inside" true (Obs.enabled ());
          Span.with_ "t.run" (fun () -> ()));
      Alcotest.(check bool) "disabled after" false (Obs.enabled ());
      Alcotest.(check int) "buffers reset" 0 (List.length (Span.events ()));
      match Obs.validate_trace_file tf with
      | Ok n -> Alcotest.(check int) "exported span" 1 n
      | Error e -> Alcotest.fail e)

let () =
  Alcotest.run "sttc_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "rejects nan" `Quick test_json_rejects_nan;
          QCheck_alcotest.to_alcotest prop_json_round_trip;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "records on exception" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "instant" `Quick test_span_instant;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cross-domain merge" `Quick
            test_metrics_cross_domain_merge;
          Alcotest.test_case "peak gauge" `Quick test_metrics_peak_gauge;
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "snapshot sorted" `Quick
            test_metrics_snapshot_sorted;
        ] );
      ( "export",
        [
          Alcotest.test_case "round trip" `Quick test_export_round_trip;
          Alcotest.test_case "files" `Quick test_export_files;
          Alcotest.test_case "rejects garbage" `Quick
            test_validators_reject_garbage;
          Alcotest.test_case "rejects bad nesting" `Quick
            test_validator_rejects_bad_nesting;
          Alcotest.test_case "build info" `Quick test_build_info;
        ] );
      ( "integration",
        [
          Alcotest.test_case "pool probe" `Quick test_pool_probe;
          Alcotest.test_case "with_run off" `Quick
            test_with_run_noop_when_unrequested;
          Alcotest.test_case "with_run exports" `Quick
            test_with_run_exports_and_resets;
        ] );
    ]
