(* Work-stealing is overkill for our task shapes (tens to hundreds of
   coarse tasks): the workers of one bag claim chunks from a shared
   atomic cursor, which keeps the implementation dependency-free and the
   contention negligible next to task cost. *)

type error = {
  index : int;
  exn : string;
  backtrace : string;
}

exception Task_error of error

let now_s = Deadline.now_s

(* ---------- instrumentation probe ---------- *)

(* The pool sits below the observability library in the dependency
   order, so it cannot record spans or metrics itself; instead it
   exposes one hook that an observer installs at startup.  Absent a
   probe the cost is one [Atomic.get] per pooled bag. *)

type probe = {
  on_submit : tasks:int -> chunks:int -> unit;
  around_chunk : size:int -> (unit -> unit) -> unit;
}

let probe : probe option Atomic.t = Atomic.make None

let set_probe p = Atomic.set probe p

(* ---------- the pool ---------- *)

let default_jobs () = Domain.recommended_domain_count ()

let pooled ?chunk ~jobs f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let results = Array.make n None in
  let chunk = match chunk with Some c -> c | None -> max 1 (n / (4 * jobs)) in
  let nchunks = (n + chunk - 1) / chunk in
  let probe = Atomic.get probe in
  (match probe with
  | Some p -> p.on_submit ~tasks:n ~chunks:nchunks
  | None -> ());
  (* every task runs under the submitter's budget, and a task started
     past the deadline is abandoned at once *)
  let deadline = Domain.DLS.get Deadline.key in
  let run_chunk c =
    let lo = c * chunk in
    let hi = min (n - 1) (lo + chunk - 1) in
    let body () =
      for i = lo to hi do
        let outcome =
          match
            Budget.check ();
            f arr.(i)
          with
          | v -> Ok v
          | exception e ->
              Error
                {
                  index = i;
                  exn = Printexc.to_string e;
                  backtrace = Printexc.get_backtrace ();
                }
        in
        (* distinct indices per worker; the caller reads them only after
           joining every worker *)
        results.(i) <- Some outcome
      done
    in
    match probe with
    | Some p -> p.around_chunk ~size:(hi - lo + 1) body
    | None -> body ()
  in
  let cursor = Atomic.make 0 in
  let worker () =
    Domain.DLS.set Deadline.key deadline;
    let rec loop () =
      let c = Atomic.fetch_and_add cursor 1 in
      if c < nchunks then begin
        run_chunk c;
        loop ()
      end
    in
    loop ()
  in
  List.iter Domain.join
    (List.init (min jobs nchunks) (fun _ -> Domain.spawn worker));
  (* a task that exhausted the shared deadline exhausted the
     submitter's: raise it here rather than report a task error *)
  Budget.check ();
  let outcomes =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* every worker joined: every slot set *))
      results
  in
  match Array.find_map (function Error e -> Some e | Ok _ -> None) outcomes with
  | Some e -> raise (Task_error e)
  | None ->
      Array.to_list
        (Array.map (function Ok v -> v | Error _ -> assert false) outcomes)

let map ?chunk ?(work = infinity) ~jobs f items =
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.map: chunk must be >= 1"
  | _ -> ());
  match items with
  | _ :: _ :: _ when jobs > 1 && work >= 1. -> pooled ?chunk ~jobs f items
  | _ -> List.map f items
