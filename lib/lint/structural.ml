module D = Diagnostic
module Netlist = Sttc_netlist.Netlist

type rule = {
  id : string;
  alias : string;
  severity : D.severity;
  doc : string;
}

(* STR001-003 and STR005-007 name faults that Netlist.Builder,
   Netlist.with_kinds and the .bench reader refuse, so no Netlist.t holds
   one; their rows stay so that --rules, --suppress and baselines naming
   them still resolve. *)

let r_comb_loop =
  {
    id = "STR001";
    alias = "comb-loop";
    severity = D.Error;
    doc =
      "Combinational cycle: a feedback loop that passes through no \
       flip-flop.  The netlist reader refuses such input.";
  }

let r_undriven =
  {
    id = "STR002";
    alias = "undriven-net";
    severity = D.Error;
    doc =
      "Undriven or floating net: a fanin that references no driver \
       (undefined signal, unwired flip-flop input).  The netlist reader \
       refuses such input.";
  }

let r_multi_driver =
  {
    id = "STR003";
    alias = "multi-driver";
    severity = D.Error;
    doc =
      "One signal name driven by more than one node.  The netlist reader \
       refuses such input.";
  }

let r_dangling =
  {
    id = "STR004";
    alias = "dangling-gate";
    severity = D.Warning;
    doc =
      "Dead logic: a combinational node from which no primary output \
       and no flip-flop can be reached.";
  }

let r_arity =
  {
    id = "STR005";
    alias = "arity-mismatch";
    severity = D.Error;
    doc =
      "Fan-in count disagrees with the node's gate function.  The netlist \
       reader refuses such input.";
  }

let r_dup_name =
  {
    id = "STR006";
    alias = "duplicate-name";
    severity = D.Error;
    doc =
      "Duplicate primary-output name.  The netlist reader refuses such \
       input.";
  }

let r_no_output =
  {
    id = "STR007";
    alias = "no-output";
    severity = D.Error;
    doc =
      "The design declares no primary output.  The netlist reader refuses \
       such input.";
  }

let rules =
  [
    r_comb_loop;
    r_undriven;
    r_multi_driver;
    r_dangling;
    r_arity;
    r_dup_name;
    r_no_output;
  ]

(* STR004: mark everything a primary output or a flip-flop's D input
   reads, then report the unmarked combinational nodes in id order. *)
let check ?library:_ nl =
  let useful = Array.make (Netlist.node_count nl) false in
  let rec mark v =
    if not useful.(v) then begin
      useful.(v) <- true;
      Array.iter mark (Netlist.fanins nl v)
    end
  in
  Array.iter (fun (_, drv) -> mark drv) (Netlist.outputs nl);
  Netlist.iter
    (fun _ node ->
      match node.Netlist.kind with
      | Netlist.Dff -> Array.iter mark node.Netlist.fanins
      | _ -> ())
    nl;
  Netlist.fold
    (fun id node acc ->
      if Netlist.is_combinational node.Netlist.kind && not useful.(id) then
        D.make ~rule:r_dangling.id ~alias:r_dangling.alias
          ~severity:r_dangling.severity ~node:node.Netlist.name
          "drives no primary output and no flip-flop (dead logic)"
        :: acc
      else acc)
    nl []
  |> List.rev
