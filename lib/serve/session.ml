module Metrics = Sttc_obs.Metrics
module Netlist = Sttc_netlist.Netlist
module Ppa = Sttc_core.Ppa

type entry = {
  netlist : Netlist.t;
  mutable stamp : int;
  mutable baseline : Ppa.baseline option;
}

type t = {
  capacity : int;
  lock : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable tick : int;
}

let create ?(capacity = 32) () =
  { capacity; lock = Mutex.create (); table = Hashtbl.create 64; tick = 0 }

let key = function
  | Request.Named n -> "name:" ^ n
  | Request.Inline { name; text } ->
      "sha:" ^ name ^ ":" ^ Digest.to_hex (Digest.string text)

let parse = function
  | Request.Named n -> (
      try Ok (Sttc_experiments.Runner.build_circuit n)
      with Invalid_argument m -> Error m)
  | Request.Inline { name; text } -> (
      try Ok (Sttc_netlist.Bench_io.parse_string ~design_name:name text) with
      | Sttc_netlist.Bench_io.Parse_error (line, msg) ->
          Error (Printf.sprintf "%s:%d: %s" name line msg)
      | Invalid_argument m -> Error m)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let touch t e =
  t.tick <- t.tick + 1;
  e.stamp <- t.tick

let evict_over_capacity t =
  while Hashtbl.length t.table > t.capacity do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (k, e.stamp))
        t.table None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.table k;
        Metrics.incr "serve.cache_evictions"
    | None -> ()
  done

let netlist t source =
  if t.capacity <= 0 then begin
    Metrics.incr "serve.cache_misses";
    parse source
  end
  else
    let k = key source in
    let cached =
      locked t (fun () ->
          match Hashtbl.find_opt t.table k with
          | Some e ->
              touch t e;
              Some e.netlist
          | None -> None)
    in
    match cached with
    | Some nl ->
        Metrics.incr "serve.cache_hits";
        Ok nl
    | None -> (
        Metrics.incr "serve.cache_misses";
        (* parse and warm outside the lock: concurrent misses on the
           same key may both parse (identical results — parsing is
           deterministic); the loser's insert is a harmless overwrite *)
        match parse source with
        | Error _ as e -> e
        | Ok nl ->
            Netlist.warm nl;
            locked t (fun () ->
                (match Hashtbl.find_opt t.table k with
                | Some e -> touch t e
                | None ->
                    t.tick <- t.tick + 1;
                    Hashtbl.replace t.table k
                      { netlist = nl; stamp = t.tick; baseline = None };
                    evict_over_capacity t);
                Ok nl))

(* The counters are named for the base timing analysis the baseline
   holds; the performance ledger reads them under these names. *)
let baseline t source nl =
  let compute () = Ppa.baseline Sttc_tech.Library.cmos90 nl in
  if t.capacity <= 0 then begin
    Metrics.incr "serve.sta_cache_misses";
    compute ()
  end
  else
    let k = key source in
    let cached =
      locked t (fun () ->
          match Hashtbl.find_opt t.table k with
          | Some e when e.netlist == nl -> e.baseline
          | Some _ | None -> None)
    in
    match cached with
    | Some b ->
        Metrics.incr "serve.sta_cache_hits";
        b
    | None ->
        Metrics.incr "serve.sta_cache_misses";
        (* analyze outside the lock; concurrent misses both compute the
           same deterministic result and one insert wins harmlessly *)
        let b = compute () in
        locked t (fun () ->
            (match Hashtbl.find_opt t.table k with
            | Some e when e.netlist == nl -> (
                match e.baseline with
                | None -> e.baseline <- Some b
                | Some _ -> ())
            | Some _ | None -> ());
            b)
