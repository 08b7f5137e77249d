(* Log-scale histogram grid: 4 buckets per decade over [1e-6, 1e3].
   Bucket i covers (10^(lo + i/4), 10^(lo + (i+1)/4)]. *)
let bpd = 4
let lo_exp = -6
let hi_exp = 3
let nbuckets = (hi_exp - lo_exp) * bpd

let bucket_bound i =
  (* upper bound of bucket i *)
  10. ** (float_of_int lo_exp +. (float_of_int (i + 1) /. float_of_int bpd))

let bucket_of v =
  if v <= 10. ** float_of_int lo_exp then 0
  else
    let idx =
      int_of_float
        (Float.floor ((Float.log10 v -. float_of_int lo_exp)
                      *. float_of_int bpd))
    in
    (* a sample exactly on a bound belongs to the bucket it closes *)
    let idx = if bucket_bound (idx - 1) >= v then idx - 1 else idx in
    if idx >= nbuckets then nbuckets (* overflow *) else max 0 idx

type hist = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  counts : int array;
  mutable overflow : int;
}

type cell =
  | Ccounter of int ref
  | Cgauge of float ref
  | Chist of hist

type shard = (string, cell) Hashtbl.t

(* Every domain's shard is registered here on first use; the mutex
   guards registration and snapshot/reset only — recording touches just
   the domain-local table. *)
let registry_mutex = Mutex.create ()
let registry : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s : shard = Hashtbl.create 32 in
      Mutex.lock registry_mutex;
      registry := s :: !registry;
      Mutex.unlock registry_mutex;
      s)

let kind_name = function
  | Ccounter _ -> "counter"
  | Cgauge _ -> "gauge"
  | Chist _ -> "histogram"

let cell name make expected =
  let s = Domain.DLS.get shard_key in
  match Hashtbl.find_opt s name with
  | Some c ->
      if kind_name c <> expected then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %s is a %s, not a %s" name
             (kind_name c) expected);
      c
  | None ->
      let c = make () in
      Hashtbl.add s name c;
      c

let incr ?(by = 1) name =
  if Control.enabled () then
    match cell name (fun () -> Ccounter (ref 0)) "counter" with
    | Ccounter r -> r := !r + by
    | Cgauge _ | Chist _ -> assert false

let set_gauge name v =
  if Control.enabled () then
    match cell name (fun () -> Cgauge (ref v)) "gauge" with
    | Cgauge r -> r := v
    | Ccounter _ | Chist _ -> assert false

let peak_gauge name v =
  if Control.enabled () then
    match cell name (fun () -> Cgauge (ref v)) "gauge" with
    | Cgauge r -> if v > !r then r := v
    | Ccounter _ | Chist _ -> assert false

let fresh_hist () =
  {
    count = 0;
    sum = 0.;
    vmin = infinity;
    vmax = neg_infinity;
    counts = Array.make nbuckets 0;
    overflow = 0;
  }

let observe name v =
  if Control.enabled () then
    match cell name (fun () -> Chist (fresh_hist ())) "histogram" with
    | Chist h ->
        h.count <- h.count + 1;
        h.sum <- h.sum +. v;
        if v < h.vmin then h.vmin <- v;
        if v > h.vmax then h.vmax <- v;
        let b = bucket_of v in
        if b >= nbuckets then h.overflow <- h.overflow + 1
        else h.counts.(b) <- h.counts.(b) + 1
    | Ccounter _ | Cgauge _ -> assert false

(* ---------- snapshot / merge ---------- *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
  overflow : int;
}

type point = Counter of int | Gauge of float | Histogram of summary

type snapshot = (string * point) list

let summary_of_hist (h : hist) =
  {
    count = h.count;
    sum = h.sum;
    min = (if h.count = 0 then 0. else h.vmin);
    max = (if h.count = 0 then 0. else h.vmax);
    buckets =
      List.init nbuckets (fun i -> (bucket_bound i, h.counts.(i)));
    overflow = h.overflow;
  }

(* Buckets are united by bound instead of zipped: snapshots that
   travelled through JSON carry only their occupied buckets, and two
   such lists rarely share a shape. *)
let union_buckets xs ys =
  let rec go xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (lx, cx) :: xt, (ly, cy) :: yt ->
        if lx = ly then (lx, cx + cy) :: go xt yt
        else if lx < ly then (lx, cx) :: go xt ys
        else (ly, cy) :: go xs yt
  in
  go xs ys

let merge_points name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (Float.max x y)
  | Histogram x, Histogram y ->
      Histogram
        {
          count = x.count + y.count;
          sum = x.sum +. y.sum;
          min =
            (if x.count = 0 then y.min
             else if y.count = 0 then x.min
             else Float.min x.min y.min);
          max = Float.max x.max y.max;
          buckets = union_buckets x.buckets y.buckets;
          overflow = x.overflow + y.overflow;
        }
  | _ ->
      invalid_arg
        ("Obs.Metrics.snapshot: series " ^ name
       ^ " recorded with two different kinds")

let snapshot () =
  let shards =
    Mutex.lock registry_mutex;
    let s = !registry in
    Mutex.unlock registry_mutex;
    s
  in
  let merged : (string, point) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun shard ->
      Hashtbl.iter
        (fun name c ->
          let p =
            match c with
            | Ccounter r -> Counter !r
            | Cgauge r -> Gauge !r
            | Chist h -> Histogram (summary_of_hist h)
          in
          match Hashtbl.find_opt merged name with
          | None -> Hashtbl.add merged name p
          | Some q -> Hashtbl.replace merged name (merge_points name q p))
        shard)
    shards;
  Hashtbl.fold (fun name p acc -> (name, p) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let find snap name = List.assoc_opt name snap

let counter_value snap name =
  match find snap name with Some (Counter n) -> n | _ -> 0

let merge a b =
  let rec go a b =
    match (a, b) with
    | [], l | l, [] -> l
    | ((na, pa) as xa) :: at, ((nb, pb) as xb) :: bt ->
        if na = nb then (na, merge_points na pa pb) :: go at bt
        else if na < nb then xa :: go at b
        else xb :: go a bt
  in
  (* snapshots are name-sorted by contract, but parsed ones might not
     be — sort defensively so the merge walk is correct *)
  let sorted s = List.sort (fun (a, _) (b, _) -> compare a b) s in
  go (sorted a) (sorted b)

(* ---------- JSON round-trip ---------- *)

(* Snap a parsed bucket bound back onto the canonical grid: bounds are
   printed with %.12g, so they come back a few ulps off the values
   [bucket_bound] computes, and bound equality is what {!merge} unites
   buckets by. *)
let canonical_bound le =
  let rec find i =
    if i >= nbuckets then le
    else
      let b = bucket_bound i in
      if Float.abs (le -. b) <= 1e-9 *. Float.max (Float.abs le) (Float.abs b)
      then b
      else find (i + 1)
  in
  find 0

(* A point's table names its series in every error, so it is built per
   series: [ctx] is ["series <name>"]. *)
let single kind k ctx =
  Json.(record ctx (let+ () = tag "type" kind and+ v = req "value" k Fun.id in v))

let counter = single "counter" Json.int
let gauge = single "gauge" Json.number

let bucket ctx =
  Json.(
    record ctx
      (let+ le = req "le" number fst and+ c = req "count" int snd in
       (canonical_bound le, c)))

let histogram ctx =
  Json.(
    record ctx
      (let+ () = tag "type" "histogram"
       and+ count = req "count" int (fun s -> s.count)
       and+ sum = req "sum" number (fun s -> s.sum)
       and+ min = req "min" number (fun s -> s.min)
       and+ max = req "max" number (fun s -> s.max)
       and+ buckets =
         req "buckets" (list (nested (bucket ctx))) (fun s ->
             (* the grid has 36 buckets; only occupied ones are worth the
                bytes *)
             List.filter (fun (_, c) -> c <> 0) s.buckets)
       and+ overflow = req "overflow" int (fun s -> s.overflow) in
       { count; sum; min; max; buckets; overflow }))

let to_json snap =
  let point = function
    | Counter n -> Json.encode (counter "") n
    | Gauge v -> Json.encode (gauge "") v
    | Histogram s -> Json.encode (histogram "") s
  in
  Json.Obj (List.map (fun (name, p) -> (name, point p)) snap)

let of_json j =
  let series (name, v) =
    let ctx = "series " ^ name in
    let decode record wrap =
      Result.map (fun x -> (name, wrap x)) (Json.decode (record ctx) v)
    in
    match Json.field ctx Json.string "type" v with
    | Ok "counter" -> decode counter (fun n -> Counter n)
    | Ok "gauge" -> decode gauge (fun x -> Gauge x)
    | Ok "histogram" -> decode histogram (fun s -> Histogram s)
    | Ok other -> Error (Printf.sprintf "%s: unknown type %S" ctx other)
    | Error _ as e -> e
  in
  match j with
  | Json.Obj fields ->
      Result.map
        (List.sort (fun (a, _) (b, _) -> compare a b))
        (Json.all (List.map series fields))
  | _ -> Error "metrics: not a JSON object"

let reset () =
  Mutex.lock registry_mutex;
  List.iter Hashtbl.reset !registry;
  Mutex.unlock registry_mutex
