let ( let* ) = Result.bind

(* ---------- rendering ---------- *)

let tid_of = function
  | Span.Complete { tid; _ } | Span.Instant { tid; _ } -> tid

let track_name tid = if tid = 0 then "main" else Printf.sprintf "domain-%d" tid

let thread_meta tid =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.String (track_name tid)) ]);
    ]

let attr_fields attrs = List.map (fun (k, v) -> (k, Json.String v)) attrs

let event_json = function
  | Span.Complete { name; cat; ts_us; dur_us; tid; depth; parent; attrs } ->
      let args =
        attr_fields attrs
        @ [ ("depth", Json.Int depth) ]
        @ (match parent with
          | None -> []
          | Some p -> [ ("parent", Json.String p) ])
      in
      Json.Obj
        [
          ("name", Json.String name);
          ("cat", Json.String cat);
          ("ph", Json.String "X");
          ("ts", Json.Float ts_us);
          ("dur", Json.Float dur_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", Json.Obj args);
        ]
  | Span.Instant { name; cat; ts_us; tid; attrs } ->
      Json.Obj
        [
          ("name", Json.String name);
          ("cat", Json.String cat);
          ("ph", Json.String "i");
          ("s", Json.String "t");
          ("ts", Json.Float ts_us);
          ("pid", Json.Int 1);
          ("tid", Json.Int tid);
          ("args", Json.Obj (attr_fields attrs));
        ]

let trace_json () =
  let evs = Span.events () in
  let tids = List.sort_uniq compare (List.map tid_of evs) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List (List.map thread_meta tids @ List.map event_json evs) );
      ( "otherData",
        Json.Obj
          (Build_info.to_fields ()
          @ [ ("dropped_events", Json.Int (Span.dropped ())) ]) );
    ]

let metrics_json_of_snapshot snap =
  Json.Obj
    [
      ("meta", Json.Obj (Build_info.to_fields ()));
      ("metrics", Metrics.to_json snap);
    ]

let metrics_json () = metrics_json_of_snapshot (Metrics.snapshot ())

let write_text path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text);
  Sys.rename tmp path

let write_file path j = write_text path (Json.to_string j ^ "\n")

(* ---------- validation ---------- *)

let check_meta ctx j =
  let* _ = Json.field ctx Json.string "version" j in
  let* _ = Json.field ctx Json.string "commit" j in
  let* _ = Json.field ctx Json.string "tool" j in
  Ok ()

(* Span containment tolerance: timestamps round-trip through a %.12g
   float representation, so parent/child boundaries can disagree by a
   few nanoseconds without anything being wrong. *)
let eps = 0.005

(* One domain's complete events must nest: sweeping in start order, a
   span starting inside a still-open span must also end inside it. *)
let check_nesting tid spans =
  let sorted =
    List.sort
      (fun (t1, d1, _) (t2, d2, _) ->
        match Float.compare t1 t2 with
        | 0 -> Float.compare d2 d1 (* enclosing span first on ties *)
        | c -> c)
      spans
  in
  let rec pop_finished ts = function
    | (e, _) :: tl when e <= ts +. eps -> pop_finished ts tl
    | stack -> stack
  in
  let rec sweep stack = function
    | [] -> Ok ()
    | (ts, dur, name) :: rest -> (
        let stack = pop_finished ts stack in
        match stack with
        | (pend, pname) :: _ when ts +. dur > pend +. eps ->
            Error
              (Printf.sprintf
                 "tid %d: span %S [%g, %g] overlaps but does not nest in \
                  open span %S (ends %g)"
                 tid name ts (ts +. dur) pname pend)
        | _ -> sweep ((ts +. dur, name) :: stack) rest)
  in
  sweep [] sorted

let validate_trace j =
  let* events = Json.field "trace file" (Json.list Json.obj) "traceEvents" j in
  let* other = Json.field "trace file" Json.obj "otherData" j in
  let* () = check_meta "otherData" other in
  let by_tid : (int, (float * float * string) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let spans = ref 0 in
  let rec check_events i = function
    | [] -> Ok ()
    | ev :: rest ->
        let ctx = Printf.sprintf "event %d" i in
        let* name = Json.field ctx Json.string "name" ev in
        let* ph = Json.field ctx Json.string "ph" ev in
        let* _pid = Json.field ctx Json.int "pid" ev in
        let* tid = Json.field ctx Json.int "tid" ev in
        let ctx = Printf.sprintf "event %d (%s)" i name in
        let* () =
          if ph = "M" then Ok ()
          else
            let* ts = Json.field ctx Json.number "ts" ev in
            let* () =
              if ts < 0. then Error (ctx ^ ": negative ts") else Ok ()
            in
            match ph with
            | "X" ->
                let* dur = Json.field ctx Json.number "dur" ev in
                if dur < 0. then Error (ctx ^ ": negative dur")
                else begin
                  incr spans;
                  let cell =
                    match Hashtbl.find_opt by_tid tid with
                    | Some r -> r
                    | None ->
                        let r = ref [] in
                        Hashtbl.add by_tid tid r;
                        r
                  in
                  cell := (ts, dur, name) :: !cell;
                  Ok ()
                end
            | "i" -> Ok ()
            | _ -> Error (Printf.sprintf "%s: unsupported ph %S" ctx ph)
        in
        check_events (i + 1) rest
  in
  let* () = check_events 0 events in
  let* () =
    Hashtbl.fold
      (fun tid cell acc ->
        let* () = acc in
        check_nesting tid !cell)
      by_tid (Ok ())
  in
  Ok !spans

(* The invariants a metrics file's snapshot must hold beyond its
   shape, which {!Metrics.of_json} reads. *)
let check_point (name, p) =
  let ctx = "series " ^ name in
  match p with
  | Metrics.Counter n when n < 0 -> Error (ctx ^ ": negative counter")
  | Metrics.Counter _ | Metrics.Gauge _ -> Ok ()
  | Metrics.Histogram { count; buckets; overflow; _ } ->
      let rec walk prev_le total = function
        | [] -> Ok total
        | (le, c) :: rest ->
            if le <= prev_le then
              Error (ctx ^ ": bucket bounds not strictly increasing")
            else if c <= 0 then
              Error (ctx ^ ": bucket with non-positive count")
            else walk le (total + c) rest
      in
      let* in_buckets = walk neg_infinity 0 buckets in
      if count < 0 then Error (ctx ^ ": negative count")
      else if overflow < 0 then Error (ctx ^ ": negative overflow")
      else if in_buckets + overflow <> count then
        Error
          (Printf.sprintf "%s: bucket counts (%d) + overflow (%d) <> count (%d)"
             ctx in_buckets overflow count)
      else Ok ()

let validate_metrics ?(min_series = 0) ?(require = []) j =
  let* meta = Json.field "metrics file" Json.obj "meta" j in
  let* () = check_meta "meta" meta in
  let* series =
    Result.bind (Json.field "metrics file" Json.obj "metrics" j) Metrics.of_json
  in
  let* _ = Json.all (List.map check_point series) in
  let* () =
    match
      List.filter (fun name -> not (List.mem_assoc name series)) require
    with
    | [] -> Ok ()
    | missing ->
        Error ("missing required series: " ^ String.concat ", " missing)
  in
  let n = List.length series in
  if n < min_series then
    Error (Printf.sprintf "only %d metric series, need at least %d" n min_series)
  else Ok n
