exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

type stmt =
  | Sinput of string
  | Soutput of string
  | Sassign of string * string * string option * string list
      (** name = OP "config"? (args) *)

let lex_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else
    let parse_call s ctor =
      (* s looks like KEYWORD(name) *)
      match (String.index_opt s '(', String.rindex_opt s ')') with
      | Some l, Some r when r > l ->
          let arg = String.trim (String.sub s (l + 1) (r - l - 1)) in
          if arg = "" then fail lineno "empty argument list"
          else Some (ctor arg)
      | _ -> fail lineno ("malformed line: " ^ s)
    in
    (* a declaration is the keyword, optional blanks and "(", on a line
       without "="; OutputMon = BUFF(b) assigns a signal *)
    let declares kw =
      let n = String.length kw in
      (not (String.contains line '='))
      && String.length line > n
      && String.uppercase_ascii (String.sub line 0 n) = kw
      && String.starts_with ~prefix:"("
           (String.trim (String.sub line n (String.length line - n)))
    in
    if declares "INPUT" then parse_call line (fun a -> Sinput a)
    else if declares "OUTPUT" then parse_call line (fun a -> Soutput a)
    else
      match String.index_opt line '=' with
      | None -> fail lineno ("expected assignment: " ^ line)
      | Some eq ->
          let lhs = String.trim (String.sub line 0 eq) in
          let rhs =
            String.trim (String.sub line (eq + 1) (String.length line - eq - 1))
          in
          (match (String.index_opt rhs '(', String.rindex_opt rhs ')') with
          | Some l, Some r when r > l ->
              let head = String.trim (String.sub rhs 0 l) in
              let args_s = String.sub rhs (l + 1) (r - l - 1) in
              let args =
                String.split_on_char ',' args_s
                |> List.map String.trim
                |> List.filter (( <> ) "")
              in
              (* empty argument lists are legal for VCC()/GND() *)
              (* optional quoted config on LUTs: LUT "0110" *)
              let op, config =
                match String.index_opt head '"' with
                | None -> (String.trim head, None)
                | Some q1 -> (
                    match String.rindex_opt head '"' with
                    | Some q2 when q2 > q1 ->
                        ( String.trim (String.sub head 0 q1),
                          Some (String.sub head (q1 + 1) (q2 - q1 - 1)) )
                    | _ -> fail lineno "unterminated config string")
              in
              Some (Sassign (lhs, String.uppercase_ascii op, config, args))
          | _ -> fail lineno ("malformed right-hand side: " ^ rhs))

let parse_string ?(design_name = "bench") text =
  let lines = String.split_on_char '\n' text in
  let stmts = ref [] in
  List.iteri
    (fun i line ->
      match lex_line (i + 1) line with
      | Some s -> stmts := (i + 1, s) :: !stmts
      | None -> ())
    lines;
  let stmts = List.rev !stmts in
  let b = Netlist.Builder.create ~design_name () in
  (* Two passes: declare all signals (so forward references through DFFs
     work), then wire.  Signals defined by assignment become their node;
     INPUT declares a PI. *)
  let assigns = Hashtbl.create 64 in
  let input_names = Hashtbl.create 16 in
  let output_names = Hashtbl.create 16 in
  let inputs = ref [] and outs = ref [] in
  List.iter
    (fun (ln, s) ->
      match s with
      | Sinput a ->
          if Hashtbl.mem assigns a || Hashtbl.mem input_names a then
            fail ln ("redefined signal " ^ a);
          Hashtbl.add input_names a ();
          inputs := (ln, a) :: !inputs
      | Soutput a ->
          if Hashtbl.mem output_names a then fail ln ("duplicate OUTPUT " ^ a);
          Hashtbl.add output_names a ();
          outs := (ln, a) :: !outs
      | Sassign (lhs, op, config, args) ->
          if Hashtbl.mem assigns lhs || Hashtbl.mem input_names lhs then
            fail ln ("redefined signal " ^ lhs);
          Hashtbl.add assigns lhs (ln, op, config, args))
    stmts;
  let ids = Hashtbl.create 64 in
  List.iter
    (fun (ln, a) ->
      if Hashtbl.mem ids a then fail ln ("duplicate INPUT " ^ a);
      Hashtbl.add ids a (Netlist.Builder.add_pi b a))
    (List.rev !inputs);
  (* Declare DFFs first (deferred), then build combinational assignments in
     dependency order via recursion. *)
  Hashtbl.iter
    (fun lhs (ln, op, _config, args) ->
      if op = "DFF" then begin
        if List.length args <> 1 then fail ln "DFF takes one argument";
        Hashtbl.add ids lhs (Netlist.Builder.add_dff_deferred b lhs)
      end)
    assigns;
  let building = Hashtbl.create 16 in
  let rec node_of ln signal =
    match Hashtbl.find_opt ids signal with
    | Some id -> id
    | None -> (
        if Hashtbl.mem building signal then
          fail ln ("combinational cycle through " ^ signal);
        match Hashtbl.find_opt assigns signal with
        | None -> fail ln ("undefined signal " ^ signal)
        | Some (ln', op, config, args) ->
            Hashtbl.add building signal ();
            let arg_ids = Array.of_list (List.map (node_of ln') args) in
            let id = build_assign ln' signal op config arg_ids in
            Hashtbl.remove building signal;
            Hashtbl.add ids signal id;
            id)
  and build_assign ln lhs op config args =
    (* The builder re-validates everything structurally; anything it
       rejects (LUT arity out of range, ...) must surface as a
       Parse_error carrying the offending line, not a bare
       Invalid_argument. *)
    try
      match op with
      | "DFF" -> assert false (* pre-declared *)
      | "LUT" ->
          let arity = Array.length args in
          let config =
            Option.map
              (fun s ->
                match Sttc_logic.Truth.of_string s with
                | t ->
                    if Sttc_logic.Truth.arity t <> arity then
                      fail ln "LUT config arity mismatch"
                    else t
                | exception Invalid_argument m -> fail ln m)
              config
          in
          Netlist.Builder.add_lut b lhs ?config args
      | "VCC" | "ONE" | "GND" | "ZERO" ->
          if args <> [||] then fail ln (op ^ " takes no arguments");
          Netlist.Builder.add_const b lhs (op = "VCC" || op = "ONE")
      | _ -> (
          let arity = Array.length args in
          match Sttc_logic.Gate_fn.of_bench_name op ~arity with
          | Some fn -> Netlist.Builder.add_gate b lhs fn args
          | None ->
              let known_with_other_arity =
                List.exists
                  (fun k ->
                    k <> arity
                    && Sttc_logic.Gate_fn.of_bench_name op ~arity:k <> None)
                  [ 1; 2; 3; 4; 5; 6 ]
              in
              if known_with_other_arity then
                fail ln
                  (Printf.sprintf "gate %s cannot take %d input(s)" op arity)
              else fail ln ("unknown gate " ^ op))
    with Invalid_argument m -> fail ln m
  in
  (* Build everything assigned. *)
  Hashtbl.iter
    (fun lhs (ln, op, _, _) -> if op <> "DFF" then ignore (node_of ln lhs))
    assigns;
  (* Wire DFF inputs. *)
  Hashtbl.iter
    (fun lhs (ln, op, _, args) ->
      if op = "DFF" then
        match args with
        | [ d ] ->
            let ff = Hashtbl.find ids lhs in
            Netlist.Builder.set_dff_input b ff (node_of ln d)
        | _ -> fail ln "DFF takes one argument")
    assigns;
  (* Outputs: none at all is the input's fault, reported at its last
     line (a final newline ends that line; it starts no line of its own). *)
  if !outs = [] then begin
    let n = List.length lines in
    fail
      (if n > 1 && String.ends_with ~suffix:"\n" text then n - 1 else n)
      "no OUTPUT declaration"
  end;
  List.iter
    (fun (ln, a) -> Netlist.Builder.add_output b a (node_of ln a))
    (List.rev !outs);
  try Netlist.Builder.finalize b
  with Invalid_argument m -> fail 0 m

let parse_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  let design_name = Filename.remove_extension (Filename.basename path) in
  parse_string ~design_name text

let to_string t =
  (* a generated gate line ("g123 = NAND(g45, pi6)") is about 25 bytes;
     sizing for it up front skips most of the Buffer's regrowth copies *)
  let buf = Buffer.create (32 * Netlist.node_count t) in
  let line parts =
    List.iter (Buffer.add_string buf) parts;
    Buffer.add_char buf '\n'
  in
  line [ "# "; Netlist.design_name t ];
  List.iter
    (fun id -> line [ "INPUT("; Netlist.name t id; ")" ])
    (Netlist.pis t);
  Array.iter
    (fun (name, _) -> line [ "OUTPUT("; name; ")" ])
    (Netlist.outputs t);
  (* [lhs = op(fanin, fanin, ...)] *)
  let assign lhs op fanins =
    Buffer.add_string buf lhs;
    Buffer.add_string buf " = ";
    Buffer.add_string buf op;
    Buffer.add_char buf '(';
    Array.iteri
      (fun i src ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf (Netlist.name t src))
      fanins;
    Buffer.add_string buf ")\n"
  in
  Netlist.iter
    (fun _ n ->
      match n.Netlist.kind with
      | Netlist.Pi -> ()
      | Netlist.Const v ->
          assign n.Netlist.name (if v then "VCC" else "GND") [||]
      | Netlist.Gate fn ->
          assign n.Netlist.name (Sttc_logic.Gate_fn.name fn) n.Netlist.fanins
      | Netlist.Lut { config = None; _ } ->
          assign n.Netlist.name "LUT" n.Netlist.fanins
      | Netlist.Lut { config = Some c; _ } ->
          assign n.Netlist.name
            ("LUT \"" ^ Sttc_logic.Truth.to_string c ^ "\"")
            n.Netlist.fanins
      | Netlist.Dff -> assign n.Netlist.name "DFF" n.Netlist.fanins)
    t;
  (* Emit an alias assignment when an output name differs from its driver
     node: OUTPUT(z) with driver n -> z = BUFF(n). *)
  Array.iter
    (fun (name, id) ->
      if name <> Netlist.name t id then assign name "BUFF" [| id |])
    (Netlist.outputs t);
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc
