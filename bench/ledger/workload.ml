(* What every workload provides to the run loop in ledger.ml, and the
   helpers they share: timed operations, the bench.<layer> spans the
   ledger records around each call into the system, and the self-time
   fold of a recorded trace. *)

module Metrics = Sttc_obs.Metrics
module Span = Sttc_obs.Span

let now = Sttc_util.Pool.now_s

type op = { kind : string; seconds : float; ok : bool }
(** One user-visible operation of a pass.  [ok] is false when it raised
    or its output failed an inline check. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* ---------- bench.<layer> spans ---------- *)

(* The span also feeds a [bench.<layer>] histogram so that
   [sttc obs-check --require] can assert the layer names from the metrics
   file alone. *)
let span layer f =
  if not (Sttc_obs.Control.enabled ()) then f ()
  else begin
    let name = "bench." ^ layer in
    let t0 = now () in
    let r = Span.with_ ~cat:"bench" name f in
    Metrics.observe name (now () -. t0);
    r
  end

(* Time one operation of a pass.  An exception is a failed operation,
   not a crashed run: the pass goes on and the failure is counted. *)
let timed kind f =
  let t0 = now () in
  match span kind f with
  | v -> ({ kind; seconds = now () -. t0; ok = true }, Some v)
  | exception e ->
      prerr_endline ("ledger: " ^ kind ^ " failed: " ^ Printexc.to_string e);
      ({ kind; seconds = now () -. t0; ok = false }, None)

type pass = { wall : float; ops : op list }

let seconds_of kind passes =
  List.concat_map
    (fun p -> List.filter_map (fun o -> if o.kind = kind then Some o.seconds else None) p.ops)
    passes

(* op_p50_ms of a workload whose pass is one operation *)
let pass_op_ms passes = 1000. *. Summary.median (List.map (fun p -> p.wall) passes)

(* ---------- the traced run's raw material ---------- *)

type times = { self : float; total : float; spans : int }
(** Seconds of a span name over the traced phase: [self] excludes the
    spans nested directly inside. *)

type traced = {
  iterations : int;  (** traced passes (each followed by one probe) *)
  untraced : pass list;  (** the untraced passes of the same run *)
  span_times : (string, times) Hashtbl.t;
  pass_counters : Metrics.snapshot;  (** recorded during traced passes *)
  probe_counters : Metrics.snapshot;  (** recorded during probes *)
}

let times t name =
  Option.value (Hashtbl.find_opt t.span_times name) ~default:{ self = 0.; total = 0.; spans = 0 }

let self_s t name = (times t name).self
let total_s t name = (times t name).total

let per_iteration t x = x /. float_of_int (max 1 t.iterations)

let count snap name = float_of_int (Metrics.counter_value snap name)

let counters_per_pass t snap names =
  List.map (fun n -> metric n "count" (per_iteration t (count snap n))) names

(* the solver counters Sat records while tracing is on *)
let sat_counters =
  [ "sat.conflicts"; "sat.decisions"; "sat.propagations"; "sat.learned"; "sat.restarts" ]

(* mean of a histogram series: sum / count *)
let hist_mean snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) when h.Metrics.count > 0 ->
      h.Metrics.sum /. float_of_int h.Metrics.count
  | _ -> 0.

let share part whole = if whole <= 0. then 0. else 100. *. part /. whole

(* Self and total time per span name; self time is a span's duration
   minus the spans directly nested in it on the same domain.  The parent
   of a depth-d span is the latest depth-(d-1) span of its domain
   started before it. *)
let fold_spans events =
  let acc = Hashtbl.create 64 in
  let add name ~self ~total ~n =
    let t = Option.value (Hashtbl.find_opt acc name) ~default:{ self = 0.; total = 0.; spans = 0 } in
    Hashtbl.replace acc name
      { self = t.self +. self; total = t.total +. total; spans = t.spans + n }
  in
  let open_at = Hashtbl.create 16 in
  let spans =
    List.filter_map
      (function
        | Span.Complete { name; ts_us; dur_us; tid; depth; _ } ->
            Some (ts_us, depth, tid, name, dur_us *. 1e-6)
        | Span.Instant _ -> None)
      events
  in
  (* a parent and its first child can share a start stamp: parent first *)
  List.iter
    (fun (_, depth, tid, name, d) ->
      add name ~self:d ~total:d ~n:1;
      (match Hashtbl.find_opt open_at (tid, depth - 1) with
      | Some parent when depth > 0 -> add parent ~self:(-.d) ~total:0. ~n:0
      | _ -> ());
      Hashtbl.replace open_at (tid, depth) name)
    (List.stable_sort
       (fun (t1, d1, _, _, _) (t2, d2, _, _, _) -> compare (t1, d1) (t2, d2))
       spans);
  acc

(* ---------- the workload interface ---------- *)

type instance = {
  pass : unit -> op list;
      (** one pass over the workload's fixed operation list *)
  probe : unit -> unit;
      (** per-layer measurement run after each traced pass (the protect
          replay, attack-layer probes, offline serve handling) *)
  checks : unit -> (string * bool) list;
      (** correctness gates, run outside every timed region *)
  digest : unit -> string;
      (** digest of the outputs, seed-deterministic; it covers only what a
          faster implementation must still reproduce *)
  op_ms : pass list -> float;
      (** median milliseconds of one user-visible operation *)
  user_metrics : pass list -> metric list;
      (** the workload's other user-visible numbers, from measured passes *)
  layer_metrics : traced -> metric list;
  peak_rss_mb : unit -> float;
  close : unit -> unit;
}

type config = {
  toy : bool;  (** smoke size: 10^3 gates, s27 attacks, 50 requests *)
  seed : int;
  sttc : string;  (** path of the sttc binary (serve-mix spawns it) *)
  scratch : string;  (** directory for the run's files *)
}

type t = {
  name : string;
  why : string;
  op : string;  (** what one operation is, for the README and the result file *)
  jobs : int;  (** worker domains of the process doing the work *)
  layers : string list;  (** the bench.<layer> spans a traced run records *)
  setup : config -> instance;
}

(* VmHWM of a process, from /proc/<pid>/status *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match
                String.split_on_char ' ' (String.trim v)
                |> List.filter (( <> ) "")
              with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' text)

let self_rss_mb () = vm_hwm_mb "self"

let digest_strings parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))
