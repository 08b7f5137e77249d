(* Work-stealing is overkill for our task shapes (tens to hundreds of
   coarse tasks): a single mutex-protected queue of chunks keeps the
   implementation dependency-free and the contention negligible next to
   task cost. *)

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
   probe the cost is one [Atomic.get] per [map] call. *)

type probe = {
  on_submit : tasks:int -> chunks:int -> unit;
  around_chunk : size:int -> (unit -> unit) -> unit;
}

let probe : probe option Atomic.t = Atomic.make None

let set_probe p = Atomic.set probe p

(* ---------- the pool ---------- *)

type t = {
  mutex : Mutex.t;
  work_cond : Condition.t;  (* workers: work arrived or shutdown *)
  done_cond : Condition.t;  (* submitters: a chunk completed *)
  queue : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t array;
  size : int;
  chunk_hint : int option;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Spawning and joining a domain costs on the order of a millisecond
   each, and the quick experiment fan-outs finish in well under that
   budget per task — a pool over a tiny bag is strictly slower than a
   serial loop.  Callers estimate the bag's total work in arbitrary
   units and declare what one unit of fan-out overhead costs in the
   same units via [min_work]. *)
let worthwhile ?(min_work = 1.) ~jobs ~tasks ~work () =
  jobs > 1 && tasks > 1 && work >= min_work

let worker_loop t =
  let rec next () =
    (* drain queued work even when stopping: shutdown is graceful *)
    match Queue.take_opt t.queue with
    | Some task -> Some task
    | None ->
        if t.stop then None
        else begin
          Condition.wait t.work_cond t.mutex;
          next ()
        end
  in
  let rec loop () =
    Mutex.lock t.mutex;
    let task = next () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        task ();
        loop ()
  in
  loop ()

let create ?chunk ~jobs () =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.create: chunk must be >= 1"
  | _ -> ());
  let t =
    {
      mutex = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      queue = Queue.create ();
      stop = false;
      workers = [||];
      size = jobs;
      chunk_hint = chunk;
    }
  in
  t.workers <- Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?chunk ~jobs f =
  let t = create ?chunk ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map t f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = Array.make n None in
    let chunk =
      match t.chunk_hint with
      | Some c -> c
      | None -> max 1 (n / (4 * t.size))
    in
    let nchunks = (n + chunk - 1) / chunk in
    let pending = ref nchunks in
    (* every task runs under the submitter's budget, and a task started
       past the deadline is abandoned at once *)
    let deadline = Domain.DLS.get Deadline.key in
    let run_range lo hi =
      Domain.DLS.set Deadline.key deadline;
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
        (* distinct indices per worker; the caller only reads them after
           synchronizing on [pending] under the mutex *)
        results.(i) <- Some outcome
      done;
      Mutex.lock t.mutex;
      decr pending;
      if !pending = 0 then Condition.broadcast t.done_cond;
      Mutex.unlock t.mutex
    in
    let probe = Atomic.get probe in
    (match probe with
    | Some p -> p.on_submit ~tasks:n ~chunks:nchunks
    | None -> ());
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.map: pool is shut down"
    end;
    for c = 0 to nchunks - 1 do
      let lo = c * chunk in
      let hi = min (n - 1) (lo + chunk - 1) in
      let body () = run_range lo hi in
      let task =
        match probe with
        | Some p -> fun () -> p.around_chunk ~size:(hi - lo + 1) body
        | None -> body
      in
      Queue.add task t.queue
    done;
    Condition.broadcast t.work_cond;
    while !pending > 0 do
      Condition.wait t.done_cond t.mutex
    done;
    Mutex.unlock t.mutex;
    (* a task that exhausted the shared deadline exhausted the
       submitter's: raise it here rather than report a task error *)
    Budget.check ();
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* pending = 0 implies every slot set *))
         results)
  end

let first_error outcomes =
  List.find_map (function Error e -> Some e | Ok _ -> None) outcomes

let map_exn t f items =
  let outcomes = map t f items in
  match first_error outcomes with
  | Some e -> raise (Task_error e)
  | None ->
      List.map (function Ok v -> v | Error _ -> assert false) outcomes

let map_reduce t ~map:f ~reduce ~init items =
  List.fold_left (fun acc v -> reduce acc v) init (map_exn t f items)
