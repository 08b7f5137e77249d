(* A persistent, incremental CDCL solver.

   Architecture notes (see DESIGN.md for the policy-level discussion):

   - Literals are encoded as array indices: variable v's positive literal
     is 2v, its negation 2v+1 (so negation is [lxor 1]).  Indices 0/1 are
     unused (variables start at 1).

   - Watch lists are growable flat [int array]s (clause indices) with an
     explicit length, one per literal index.  Propagation compacts a
     watch list in place with a read/write cursor pair and never
     allocates: moving a watch appends to the destination list's flat
     array (amortized doubling) and simply doesn't copy the entry
     forward in the source list.

   - Assumptions are decided, MiniSat-style, at decision levels
     1..n_assum rather than asserted as level-0 units.  Every clause the
     solver learns is therefore implied by the clause database alone and
     stays valid for later [solve] calls with different assumptions —
     this is what makes one solver reusable across the whole SAT-attack
     DIP loop.  An assumption already true by propagation still gets its
     own (empty) decision level so level k always means "under the first
     k assumptions".

   - Learned clauses carry their LBD (number of distinct decision levels
     among their literals, computed at learn time).  When the retained
     learned-clause count passes [reduce_limit] (2000 at first, then
     500 more after each reduction) the database is reduced
     at decision level 0 (right after a Luby restart, propagation at
     fixpoint): glue clauses (LBD <= 2) and locked clauses (the reason
     of a level-0 assignment) are kept, then the worst half of the
     remaining learned clauses — highest LBD first — is dropped and the
     clause array is compacted, remapping reasons and rebuilding
     watches. *)

type result = Sat of bool array | Unsat | Unknown of string

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  learned : int;
  kept : int;
  removed : int;
  restarts : int;
}

let zero_stats =
  {
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    learned = 0;
    kept = 0;
    removed = 0;
    restarts = 0;
  }

type value = Vfree | Vtrue | Vfalse

let lit_index l = if l > 0 then 2 * l else (2 * -l) + 1
let index_var i = i / 2
let index_neg i = i lxor 1
let restart_base = 100
let initial_reduce_limit = 2000
let reduce_step = 500
let var_decay = 0.95

(* MiniSat's reluctant-doubling sequence: 1 1 2 1 1 2 4 ... *)
let luby i =
  let seq = ref 0 and size = ref 1 and x = ref i in
  while !size < !x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

module Solver = struct
  type t = {
    mutable nvars : int;
    mutable unsat : bool; (* a level-0 conflict was derived: permanent *)
    mutable synced : int; (* clauses consumed from the attached Cnf.t *)
    (* clause database: parallel arrays indexed by clause id *)
    mutable clauses : int array array;
    mutable clause_lbd : int array;
    mutable clause_learnt : bool array;
    mutable nclauses : int;
    mutable learnt_live : int;
    mutable reduce_limit : int;
    (* watch lists: flat arrays of clause ids, one per literal index *)
    mutable watch_data : int array array;
    mutable watch_len : int array;
    (* assignment state, indexed by variable *)
    mutable assign : value array;
    mutable level : int array;
    mutable reason : int array; (* clause id, or -1 for decision/unit *)
    mutable activity : float array;
    mutable phase : bool array;
    mutable seen : bool array;
    (* trail of assigned literal indices *)
    mutable trail : int array;
    mutable trail_len : int;
    mutable qhead : int;
    mutable trail_lim : int array; (* level l starts at trail_lim.(l-1) *)
    mutable level_mark : int array; (* generation stamps for LBD *)
    mutable mark_gen : int;
    mutable dlevel : int;
    mutable var_inc : float;
    mutable luby_index : int;
    (* cumulative statistics *)
    mutable s_decisions : int;
    mutable s_propagations : int;
    mutable s_conflicts : int;
    mutable s_learned : int;
    mutable s_removed : int;
    mutable s_restarts : int;
  }

  let create () =
    {
      nvars = 0;
      unsat = false;
      synced = 0;
      clauses = [||];
      clause_lbd = [||];
      clause_learnt = [||];
      nclauses = 0;
      learnt_live = 0;
      reduce_limit = initial_reduce_limit;
      watch_data = Array.make 2 [||];
      watch_len = Array.make 2 0;
      assign = Array.make 1 Vfree;
      level = Array.make 1 0;
      reason = Array.make 1 (-1);
      activity = Array.make 1 0.0;
      phase = Array.make 1 false;
      seen = Array.make 1 false;
      trail = Array.make 1 0;
      trail_len = 0;
      qhead = 0;
      trail_lim = Array.make 4 0;
      level_mark = Array.make 4 0;
      mark_gen = 0;
      dlevel = 0;
      var_inc = 1.0;
      luby_index = 0;
      s_decisions = 0;
      s_propagations = 0;
      s_conflicts = 0;
      s_learned = 0;
      s_removed = 0;
      s_restarts = 0;
    }

  let stats s =
    {
      decisions = s.s_decisions;
      propagations = s.s_propagations;
      conflicts = s.s_conflicts;
      learned = s.s_learned;
      kept = s.learnt_live;
      removed = s.s_removed;
      restarts = s.s_restarts;
    }

  (* Return the solver to the state [create] built, keeping every
     allocated array: a long-running service can hold one solver per
     worker and recycle it across unrelated formulas without paying the
     allocation (and GC) cost of a fresh arena per request.  Behavioural
     identity with a fresh solver is a hard contract — activities,
     phases, the restart schedule and the statistics all restart from
     zero, so a reused solver recovers byte-identical answers. *)
  let reset s =
    Array.fill s.assign 0 (Array.length s.assign) Vfree;
    Array.fill s.level 0 (Array.length s.level) 0;
    Array.fill s.reason 0 (Array.length s.reason) (-1);
    Array.fill s.activity 0 (Array.length s.activity) 0.0;
    Array.fill s.phase 0 (Array.length s.phase) false;
    Array.fill s.seen 0 (Array.length s.seen) false;
    Array.fill s.watch_len 0 (Array.length s.watch_len) 0;
    Array.fill s.level_mark 0 (Array.length s.level_mark) 0;
    s.nvars <- 0;
    s.unsat <- false;
    s.synced <- 0;
    s.nclauses <- 0;
    s.learnt_live <- 0;
    s.reduce_limit <- initial_reduce_limit;
    s.trail_len <- 0;
    s.qhead <- 0;
    s.dlevel <- 0;
    s.mark_gen <- 0;
    s.var_inc <- 1.0;
    s.luby_index <- 0;
    s.s_decisions <- 0;
    s.s_propagations <- 0;
    s.s_conflicts <- 0;
    s.s_learned <- 0;
    s.s_removed <- 0;
    s.s_restarts <- 0

  (* ---- growable state ---- *)

  let grow a n fill =
    if Array.length a >= n then a
    else begin
      let b = Array.make (max n (2 * Array.length a)) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  let ensure_vars s n =
    if n > s.nvars then begin
      let vn = n + 1 in
      s.assign <- grow s.assign vn Vfree;
      s.level <- grow s.level vn 0;
      s.reason <- grow s.reason vn (-1);
      s.activity <- grow s.activity vn 0.0;
      s.phase <- grow s.phase vn false;
      s.seen <- grow s.seen vn false;
      s.trail <- grow s.trail vn 0;
      s.watch_data <- grow s.watch_data (2 * vn) [||];
      s.watch_len <- grow s.watch_len (2 * vn) 0;
      s.nvars <- n
    end

  (* Decision levels can exceed nvars: an already-satisfied assumption
     still claims an (empty) level.  trail_lim and the LBD stamp array
     grow together on demand. *)
  let new_level s =
    if s.dlevel + 2 > Array.length s.trail_lim then begin
      s.trail_lim <- grow s.trail_lim (2 * (s.dlevel + 2)) 0;
      s.level_mark <- grow s.level_mark (2 * (s.dlevel + 2)) 0
    end;
    s.trail_lim.(s.dlevel) <- s.trail_len;
    s.dlevel <- s.dlevel + 1

  (* ---- assignment primitives ---- *)

  let value_of s li =
    match s.assign.(index_var li) with
    | Vfree -> Vfree
    | Vtrue -> if li land 1 = 0 then Vtrue else Vfalse
    | Vfalse -> if li land 1 = 0 then Vfalse else Vtrue

  let enqueue s li reason =
    let v = index_var li in
    s.assign.(v) <- (if li land 1 = 0 then Vtrue else Vfalse);
    s.level.(v) <- s.dlevel;
    s.reason.(v) <- reason;
    s.phase.(v) <- li land 1 = 0;
    s.trail.(s.trail_len) <- li;
    s.trail_len <- s.trail_len + 1

  let backtrack s lvl =
    if s.dlevel > lvl then begin
      let bound = s.trail_lim.(lvl) in
      for t = s.trail_len - 1 downto bound do
        let v = index_var s.trail.(t) in
        s.assign.(v) <- Vfree;
        s.reason.(v) <- -1
      done;
      s.trail_len <- bound;
      s.qhead <- bound;
      s.dlevel <- lvl
    end

  (* ---- watch lists ---- *)

  let push_watch s li ci =
    let data = s.watch_data.(li) in
    let len = s.watch_len.(li) in
    if len >= Array.length data then begin
      let ndata = Array.make (max 4 (2 * len)) 0 in
      Array.blit data 0 ndata 0 len;
      s.watch_data.(li) <- ndata;
      ndata.(len) <- ci
    end
    else data.(len) <- ci;
    s.watch_len.(li) <- len + 1

  let attach_clause s c ~learnt ~lbd =
    if s.nclauses >= Array.length s.clauses then begin
      let cap = max 16 (2 * s.nclauses) in
      s.clauses <- grow s.clauses cap [||];
      s.clause_lbd <- grow s.clause_lbd cap 0;
      s.clause_learnt <- grow s.clause_learnt cap false
    end;
    let ci = s.nclauses in
    s.clauses.(ci) <- c;
    s.clause_lbd.(ci) <- lbd;
    s.clause_learnt.(ci) <- learnt;
    s.nclauses <- ci + 1;
    push_watch s c.(0) ci;
    push_watch s c.(1) ci;
    if learnt then begin
      s.learnt_live <- s.learnt_live + 1;
      s.s_learned <- s.s_learned + 1
    end;
    ci

  (* ---- propagation ----

     Returns the conflicting clause id, or -1.  Invariant maintained for
     every clause that is the reason of a currently assigned variable:
     the asserting literal sits at position 0 (enqueue puts it there, and
     the position-0 swap below only fires when position 0 is false, which
     a reason's asserting literal never is while the variable stays
     assigned). *)

  let propagate s =
    let conflict = ref (-1) in
    while !conflict = -1 && s.qhead < s.trail_len do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      s.s_propagations <- s.s_propagations + 1;
      let np = index_neg p in
      let ws = s.watch_data.(np) in
      let n = s.watch_len.(np) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        let ci = ws.(i) in
        if !conflict >= 0 then begin
          (* conflict already found: retain the remaining watchers *)
          ws.(!j) <- ci;
          incr j
        end
        else begin
          let c = s.clauses.(ci) in
          if c.(0) = np then begin
            c.(0) <- c.(1);
            c.(1) <- np
          end;
          if value_of s c.(0) = Vtrue then begin
            ws.(!j) <- ci;
            incr j
          end
          else begin
            (* look for a replacement watch *)
            let len = Array.length c in
            let k = ref 2 in
            while !k < len && value_of s c.(!k) = Vfalse do
              incr k
            done;
            if !k < len then begin
              (* c.(1) <> np afterwards, so the push below never touches
                 np's list and ws stays valid *)
              c.(1) <- c.(!k);
              c.(!k) <- np;
              push_watch s c.(1) ci
            end
            else begin
              ws.(!j) <- ci;
              incr j;
              match value_of s c.(0) with
              | Vfalse -> conflict := ci
              | _ -> enqueue s c.(0) ci
            end
          end
        end
      done;
      s.watch_len.(np) <- !j
    done;
    !conflict

  (* ---- activity ---- *)

  let bump s v =
    s.activity.(v) <- s.activity.(v) +. s.var_inc;
    if s.activity.(v) > 1e100 then begin
      for u = 1 to s.nvars do
        s.activity.(u) <- s.activity.(u) *. 1e-100
      done;
      s.var_inc <- s.var_inc *. 1e-100
    end

  let decay s = s.var_inc <- s.var_inc /. var_decay

  let pick_branch s =
    let best = ref 0 and best_act = ref neg_infinity in
    for v = 1 to s.nvars do
      if s.assign.(v) = Vfree && s.activity.(v) > !best_act then begin
        best := v;
        best_act := s.activity.(v)
      end
    done;
    !best

  (* ---- conflict analysis ----

     First-UIP resolution.  Returns the learned clause (UIP literal at
     position 0, a literal of the backjump level at position 1), the
     backjump level, and the clause's LBD. *)

  let analyze s confl =
    let learned = ref [] in
    let counter = ref 0 in
    let reason_ci = ref confl in
    let first = ref true in
    let t = ref (s.trail_len - 1) in
    let uip = ref (-1) in
    while !uip = -1 do
      let c = s.clauses.(!reason_ci) in
      let start = if !first then 0 else 1 in
      first := false;
      for k = start to Array.length c - 1 do
        let q = c.(k) in
        let v = index_var q in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          bump s v;
          if s.level.(v) >= s.dlevel then incr counter
          else learned := q :: !learned
        end
      done;
      (* next marked literal down the trail *)
      while not s.seen.(index_var s.trail.(!t)) do
        decr t
      done;
      let q = s.trail.(!t) in
      decr t;
      s.seen.(index_var q) <- false;
      decr counter;
      if !counter = 0 then uip := index_neg q
      else reason_ci := s.reason.(index_var q)
    done;
    let rest = !learned in
    List.iter (fun q -> s.seen.(index_var q) <- false) rest;
    let arr = Array.of_list (!uip :: rest) in
    let n = Array.length arr in
    let btlevel = ref 0 in
    if n > 1 then begin
      let m = ref 1 in
      for k = 2 to n - 1 do
        if s.level.(index_var arr.(k)) > s.level.(index_var arr.(!m)) then
          m := k
      done;
      let tmp = arr.(1) in
      arr.(1) <- arr.(!m);
      arr.(!m) <- tmp;
      btlevel := s.level.(index_var arr.(1))
    end;
    s.mark_gen <- s.mark_gen + 1;
    let g = s.mark_gen in
    let lbd = ref 0 in
    Array.iter
      (fun q ->
        let lv = s.level.(index_var q) in
        if s.level_mark.(lv) <> g then begin
          s.level_mark.(lv) <- g;
          incr lbd
        end)
      arr;
    (arr, !btlevel, !lbd)

  (* ---- clause-database reduction ----

     Precondition: decision level 0, propagation at fixpoint. *)

  let reduce_db s =
    let locked = Array.make (max s.nclauses 1) false in
    for t = 0 to s.trail_len - 1 do
      let r = s.reason.(index_var s.trail.(t)) in
      if r >= 0 then locked.(r) <- true
    done;
    let cand = ref [] in
    for ci = s.nclauses - 1 downto 0 do
      if s.clause_learnt.(ci) && s.clause_lbd.(ci) > 2 && not locked.(ci) then
        cand := ci :: !cand
    done;
    let cand = Array.of_list !cand in
    (* drop the worst half of the live learned clauses: highest LBD
       first, older first among equals (deterministic) *)
    Array.sort
      (fun a b ->
        match compare s.clause_lbd.(b) s.clause_lbd.(a) with
        | 0 -> compare a b
        | c -> c)
      cand;
    let target = min (Array.length cand) (s.learnt_live / 2) in
    if target > 0 then begin
      let old_n = s.nclauses in
      let remove = Array.make old_n false in
      for k = 0 to target - 1 do
        remove.(cand.(k)) <- true
      done;
      let remap = Array.make old_n (-1) in
      let m = ref 0 in
      for ci = 0 to old_n - 1 do
        if not remove.(ci) then begin
          remap.(ci) <- !m;
          s.clauses.(!m) <- s.clauses.(ci);
          s.clause_lbd.(!m) <- s.clause_lbd.(ci);
          s.clause_learnt.(!m) <- s.clause_learnt.(ci);
          incr m
        end
      done;
      s.nclauses <- !m;
      s.learnt_live <- s.learnt_live - target;
      s.s_removed <- s.s_removed + target;
      for t = 0 to s.trail_len - 1 do
        let v = index_var s.trail.(t) in
        if s.reason.(v) >= 0 then s.reason.(v) <- remap.(s.reason.(v))
      done;
      (* rebuild watches: move two non-false literals into the watch
         slots.  A clause with a single non-false literal is a level-0
         reason (or satisfied clause): that literal lands at position 0,
         preserving the reason invariant. *)
      Array.fill s.watch_len 0 (Array.length s.watch_len) 0;
      for ci = 0 to s.nclauses - 1 do
        let c = s.clauses.(ci) in
        let len = Array.length c in
        let w = ref 0 in
        let k = ref 0 in
        while !w < 2 && !k < len do
          if value_of s c.(!k) <> Vfalse then begin
            let tmp = c.(!k) in
            c.(!k) <- c.(!w);
            c.(!w) <- tmp;
            incr w
          end;
          incr k
        done;
        push_watch s c.(0) ci;
        push_watch s c.(1) ci
      done
    end

  (* ---- clause addition (decision level 0 only) ----

     Sorts, dedups, drops tautologies, filters literals already false at
     level 0 and clauses already satisfied at level 0.  An empty result
     makes the solver permanently unsat; a unit is enqueued (propagated
     lazily by the next solve). *)

  let add_root s idx =
    if not s.unsat then begin
      Array.sort compare idx;
      let n = Array.length idx in
      let out = Array.make (max n 1) 0 in
      let m = ref 0 and sat = ref false and i = ref 0 in
      while (not !sat) && !i < n do
        let li = idx.(!i) in
        if !m > 0 && out.(!m - 1) = li then () (* duplicate *)
        else if !m > 0 && out.(!m - 1) = index_neg li then sat := true
        else begin
          match value_of s li with
          | Vtrue -> sat := true
          | Vfalse -> ()
          | Vfree ->
              out.(!m) <- li;
              incr m
        end;
        incr i
      done;
      if not !sat then
        match !m with
        | 0 -> s.unsat <- true
        | 1 -> enqueue s out.(0) (-1)
        | m -> ignore (attach_clause s (Array.sub out 0 m) ~learnt:false ~lbd:0)
    end

  let sync s cnf =
    backtrack s 0;
    ensure_vars s (Cnf.nvars cnf);
    let n = Cnf.nclauses cnf in
    while s.synced < n do
      add_root s (Array.map lit_index (Cnf.clause cnf s.synced));
      s.synced <- s.synced + 1
    done

  let of_cnf cnf =
    let s = create () in
    sync s cnf;
    s

  (* ---- the search loop ---- *)

  exception Done of result

  let solve ?(assumptions = []) ?(max_conflicts = max_int) s =
    Sttc_util.Budget.check ();
    let at_entry = stats s in
    let finish r =
      (* per-call deltas only: the search loop itself stays untouched,
         so tracing cost is per solve call, not per propagation *)
      if Sttc_obs.Obs.enabled () then begin
        let now = stats s in
        Sttc_obs.Metrics.(
          incr "sat.solve_calls";
          incr ~by:(now.decisions - at_entry.decisions) "sat.decisions";
          incr ~by:(now.propagations - at_entry.propagations) "sat.propagations";
          incr ~by:(now.conflicts - at_entry.conflicts) "sat.conflicts";
          incr ~by:(now.learned - at_entry.learned) "sat.learned";
          incr ~by:(now.removed - at_entry.removed) "sat.removed";
          incr ~by:(now.restarts - at_entry.restarts) "sat.restarts";
          peak_gauge "sat.kept_clauses" (float_of_int now.kept))
      end;
      r
    in
    if s.unsat then finish Unsat
    else begin
      backtrack s 0;
      let assum =
        Array.of_list
          (List.map
             (fun l ->
               if l = 0 then invalid_arg "Sat.Solver.solve: literal 0";
               ensure_vars s (abs l);
               lit_index l)
             assumptions)
      in
      let n_assum = Array.length assum in
      let conflicts0 = s.s_conflicts in
      let until_restart = ref (restart_base * luby s.luby_index) in
      try
        while true do
          let confl = propagate s in
          if confl >= 0 then begin
            s.s_conflicts <- s.s_conflicts + 1;
            if s.dlevel = 0 then begin
              s.unsat <- true;
              raise (Done Unsat)
            end;
            let arr, btlevel, lbd = analyze s confl in
            backtrack s btlevel;
            if Array.length arr = 1 then enqueue s arr.(0) (-1)
            else begin
              let ci = attach_clause s arr ~learnt:true ~lbd in
              enqueue s arr.(0) ci
            end;
            decay s;
            if s.s_conflicts - conflicts0 >= max_conflicts then
              raise (Done (Unknown "conflict budget"));
            (* an exhausted wall-clock budget abandons the search
               mid-tree; the next call's backtrack to level 0 makes the
               solver reusable *)
            if s.s_conflicts land 255 = 0 then Sttc_util.Budget.check ();
            decr until_restart;
            if !until_restart <= 0 then begin
              s.s_restarts <- s.s_restarts + 1;
              s.luby_index <- s.luby_index + 1;
              until_restart := restart_base * luby s.luby_index;
              backtrack s 0;
              if s.learnt_live >= s.reduce_limit then begin
                if propagate s >= 0 then begin
                  s.unsat <- true;
                  raise (Done Unsat)
                end;
                reduce_db s;
                Sttc_obs.Metrics.incr "sat.reduce_events";
                Sttc_obs.Span.instant "sat.reduce_db" ~cat:"sat"
                  ~attrs:[ ("live", string_of_int s.learnt_live) ];
                s.reduce_limit <- s.reduce_limit + reduce_step
              end
            end
          end
          else if s.dlevel < n_assum then begin
            (* establish the next assumption as a decision *)
            let p = assum.(s.dlevel) in
            match value_of s p with
            | Vtrue -> new_level s (* hold an empty level for it *)
            | Vfalse -> raise (Done Unsat)
            | Vfree ->
                new_level s;
                enqueue s p (-1)
          end
          else begin
            let v = pick_branch s in
            if v = 0 then begin
              let model = Array.make (s.nvars + 1) false in
              for u = 1 to s.nvars do
                model.(u) <- s.assign.(u) = Vtrue
              done;
              raise (Done (Sat model))
            end;
            s.s_decisions <- s.s_decisions + 1;
            new_level s;
            enqueue s (lit_index (if s.phase.(v) then v else -v)) (-1)
          end
        done;
        assert false
      with Done r -> finish r
    end
end

(* ---- one-shot wrappers over a throwaway solver ---- *)

let solve ?max_conflicts cnf = Solver.solve ?max_conflicts (Solver.of_cnf cnf)

let model_value model v =
  if v <= 0 || v >= Array.length model then
    invalid_arg "Sat.model_value: variable out of range";
  model.(v)
