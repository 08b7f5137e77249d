module Netlist = Sttc_netlist.Netlist
module Truth = Sttc_logic.Truth
module Mtj = Sttc_fault.Mtj
module Ecc = Sttc_fault.Ecc
module Backend = Sttc_backend.Backend

type entry = {
  lut_name : string;
  config : Truth.t;
}

let of_hybrid hybrid =
  let nl = Hybrid.foundry_view hybrid in
  List.map
    (fun (id, config) -> { lut_name = Netlist.name nl id; config })
    (Hybrid.bitstream hybrid)

let to_string entries =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "# sttc bitstream v1: <lut-name> <rows, row 0 first>\n";
  List.iter
    (fun e ->
      Buffer.add_string buf e.lut_name;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Truth.to_string e.config);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

let parse text =
  let entries = ref [] in
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      let fail msg = failwith (Printf.sprintf "bitstream:%d: %s" (i + 1) msg) in
      (* String.trim also strips the '\r' of CRLF line endings *)
      let line = String.trim line in
      if line <> "" && line.[0] <> '#' then
        match
          String.split_on_char ' ' line
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (( <> ) "")
        with
        | [ name; rows ] -> (
            (match Hashtbl.find_opt seen name with
            | Some first ->
                fail
                  (Printf.sprintf "duplicate entry for %s (first at line %d)"
                     name first)
            | None -> Hashtbl.add seen name (i + 1));
            match Truth.of_string rows with
            | config -> entries := { lut_name = name; config } :: !entries
            | exception Invalid_argument m -> fail m)
        | _ -> fail "expected 'name rows'")
    (String.split_on_char '\n' text);
  List.rev !entries

let apply nl entries =
  let configs =
    List.map
      (fun e ->
        match Netlist.find nl e.lut_name with
        | None -> invalid_arg ("Provision.apply: no node named " ^ e.lut_name)
        | Some id -> (id, e.config))
      entries
  in
  let programmed = Sttc_netlist.Transform.program_luts nl configs in
  Netlist.iter
    (fun _id node ->
      match node.Netlist.kind with
      | Netlist.Lut { config = None; _ } ->
          invalid_arg
            ("Provision.apply: LUT " ^ node.Netlist.name
           ^ " left unconfigured")
      | _ -> ())
    programmed;
  programmed

type cost = {
  mtj_cells : int;
  cell_noun : string;
  write_energy_nj : float;
  write_time_us : float;
  verify_cycles : int;
}

let programming_cost ?(backend = Backend.stt) hybrid =
  let cells = Hybrid.bitstream_bits hybrid in
  {
    mtj_cells = cells;
    cell_noun = backend.Backend.cell_noun;
    write_energy_nj =
      float_of_int cells *. backend.Backend.write_energy_fj /. 1e6;
    write_time_us = float_of_int cells *. backend.Backend.write_time_ns /. 1e3;
    verify_cycles = cells;
  }

let pp_cost fmt c =
  Format.fprintf fmt
    "programming: %d %s cells, %.3f nJ write energy, %.2f us serial write \
     time, %d verify cycles"
    c.mtj_cells c.cell_noun c.write_energy_nj c.write_time_us c.verify_cycles

(* ---------- resilient programming ---------- *)

type resilience = {
  retry_budget : int;
  escalate : bool;
  ecc : bool;
  spare_rows : int;
}

let no_resilience =
  { retry_budget = 0; escalate = false; ecc = false; spare_rows = 0 }

let default_resilience =
  { retry_budget = 3; escalate = true; ecc = true; spare_rows = 2 }

type failure_cause =
  | Missing_lut of string
  | Not_a_lut of string
  | Arity_mismatch of { lut_name : string; expected : int; got : int }
  | Duplicate_entry of string
  | Unconfigured of string list
  | Unprogrammable of (string * int) list

let failure_to_string = function
  | Missing_lut n -> "no node named " ^ n
  | Not_a_lut n -> n ^ " is not a LUT slot"
  | Arity_mismatch { lut_name; expected; got } ->
      Printf.sprintf "%s: %d-input slot, %d-input config" lut_name expected got
  | Duplicate_entry n -> "duplicate bitstream entry for " ^ n
  | Unconfigured names ->
      Printf.sprintf "%d LUT slot(s) never configured (%s%s)"
        (List.length names)
        (String.concat ", "
           (List.filteri (fun i _ -> i < 4) names))
        (if List.length names > 4 then ", ..." else "")
  | Unprogrammable bits ->
      Printf.sprintf "%d unrepairable cell(s): %s%s" (List.length bits)
        (String.concat ", "
           (List.filteri
              (fun i _ -> i < 4)
              (List.map (fun (l, b) -> Printf.sprintf "%s[%d]" l b) bits)))
        (if List.length bits > 4 then ", ..." else "")

type outcome =
  | Programmed
  | Degraded of { corrected_bits : int; spared_bits : int }
  | Failed of failure_cause

type program_report = {
  outcome : outcome;
  view : Netlist.t option;
  retried_bits : int;
  corrected_bits : int;
  spared_bits : int;
  failed_bits : (string * int) list;
  write_attempts : int;
  cost : cost;
}

(* One cell through the program-verify-retry loop.  Returns the stored
   value and whether any rewrite was needed. *)
let write_cell resilience channel ~lut ~cell target =
  let rec go attempt =
    let escalation = if resilience.escalate then attempt else 0 in
    let stored = Mtj.write channel ~lut ~cell ~escalation target in
    if stored = target then (stored, attempt > 0)
    else if attempt < resilience.retry_budget then go (attempt + 1)
    else (stored, attempt > 0)
  in
  go 0

let structural_check nl entries =
  let rec dup seen = function
    | [] -> None
    | e :: rest ->
        if List.mem e.lut_name seen then Some (Duplicate_entry e.lut_name)
        else dup (e.lut_name :: seen) rest
  in
  let entry_error e =
    match Netlist.find nl e.lut_name with
    | None -> Some (Missing_lut e.lut_name)
    | Some id -> (
        match Netlist.kind nl id with
        | Netlist.Lut { arity; _ } ->
            if Truth.arity e.config <> arity then
              Some
                (Arity_mismatch
                   {
                     lut_name = e.lut_name;
                     expected = arity;
                     got = Truth.arity e.config;
                   })
            else None
        | _ -> Some (Not_a_lut e.lut_name))
  in
  match dup [] entries with
  | Some c -> Some c
  | None -> (
      match List.find_map entry_error entries with
      | Some c -> Some c
      | None ->
          let named = List.map (fun e -> e.lut_name) entries in
          let unconfigured =
            Netlist.fold
              (fun _ node acc ->
                match node.Netlist.kind with
                | Netlist.Lut { config = None; _ }
                  when not (List.mem node.Netlist.name named) ->
                    node.Netlist.name :: acc
                | _ -> acc)
              nl []
          in
          if unconfigured = [] then None
          else Some (Unconfigured (List.rev unconfigured)))

let program ?(resilience = no_resilience) ?(backend = Backend.stt) ~channel nl
    entries =
  Sttc_obs.Span.with_ "provision.program" ~cat:"core"
    ~attrs:[ ("luts", string_of_int (List.length entries)) ]
  @@ fun () ->
  let record r =
    Sttc_obs.Metrics.(
      incr "provision.programs";
      incr ~by:r.retried_bits "provision.retried_bits";
      incr ~by:r.corrected_bits "provision.corrected_bits";
      incr ~by:r.spared_bits "provision.spared_bits";
      incr ~by:r.write_attempts "provision.write_attempts");
    r
  in
  let attempts0 = Mtj.attempts channel in
  let energy0 = Mtj.energy_units channel in
  let verify0 = Mtj.verify_reads channel in
  let cost cells =
    {
      mtj_cells = cells;
      cell_noun = backend.Backend.cell_noun;
      write_energy_nj =
        (Mtj.energy_units channel -. energy0)
        *. backend.Backend.write_energy_fj /. 1e6;
      write_time_us =
        float_of_int (Mtj.attempts channel - attempts0)
        *. backend.Backend.write_time_ns /. 1e3;
      verify_cycles = Mtj.verify_reads channel - verify0;
    }
  in
  match structural_check nl entries with
  | Some cause ->
      record
        {
          outcome = Failed cause;
          view = None;
          retried_bits = 0;
          corrected_bits = 0;
          spared_bits = 0;
          failed_bits = [];
          write_attempts = 0;
          cost = cost 0;
        }
  | None ->
      let retried = ref 0
      and corrected = ref 0
      and spared = ref 0
      and failed = ref []
      and cells = ref 0 in
      let configs =
        List.map
          (fun e ->
            let lut = e.lut_name in
            let id = Netlist.find_exn nl lut in
            let rows = Truth.rows e.config in
            let desired = Array.init rows (Truth.row e.config) in
            let stored = Array.make rows false in
            let next_spare = ref 0 in
            (* data cells, with spare-row remapping for cells the whole
               retry budget cannot fix *)
            Array.iteri
              (fun row target ->
                incr cells;
                let v, re = write_cell resilience channel ~lut ~cell:row target in
                if re then incr retried;
                let v = ref v in
                while
                  !v <> target && !next_spare < resilience.spare_rows
                do
                  let cell = rows + !next_spare in
                  incr next_spare;
                  incr cells;
                  let sv, re = write_cell resilience channel ~lut ~cell target in
                  if re then incr retried;
                  if sv = target then begin
                    incr spared;
                    v := sv
                  end
                done;
                stored.(row) <- !v)
              desired;
            (* parity cells: computed over the intended bits, stored
               through the same unreliable channel *)
            let effective =
              if not resilience.ecc then stored
              else begin
                let parity = Ecc.encode desired in
                let parity_base = rows + resilience.spare_rows in
                let stored_parity =
                  Array.mapi
                    (fun j p ->
                      incr cells;
                      let v, re =
                        write_cell resilience channel ~lut
                          ~cell:(parity_base + j) p
                      in
                      if re then incr retried;
                      v)
                    parity
                in
                match Ecc.decode ~data:stored ~parity:stored_parity with
                | Ecc.Clean -> stored
                | Ecc.Corrected repaired ->
                    Array.iteri
                      (fun row v -> if v <> stored.(row) then incr corrected)
                      repaired;
                    repaired
                | Ecc.Uncorrectable -> stored
              end
            in
            Array.iteri
              (fun row v ->
                if v <> desired.(row) then failed := (lut, row) :: !failed)
              effective;
            let bits =
              Array.to_seq effective
              |> Seq.map (fun b -> if b then "1" else "0")
              |> List.of_seq |> String.concat ""
            in
            (id, Truth.of_string bits))
          entries
      in
      let view = Sttc_netlist.Transform.program_luts nl configs in
      let failed_bits = List.rev !failed in
      let outcome =
        if failed_bits <> [] then Failed (Unprogrammable failed_bits)
        else if !corrected > 0 || !spared > 0 then
          Degraded { corrected_bits = !corrected; spared_bits = !spared }
        else Programmed
      in
      record
        {
          outcome;
          view = Some view;
          retried_bits = !retried;
          corrected_bits = !corrected;
          spared_bits = !spared;
          failed_bits;
          write_attempts = Mtj.attempts channel - attempts0;
          cost = cost !cells;
        }

