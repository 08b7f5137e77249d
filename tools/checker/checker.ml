(* The typed-tree gate: checks the .cmt/.cmti files `dune build @check`
   writes against one list file (gates.txt says what each list holds).

     _build/default/tools/checker/checker.exe _build/default tools/checker/gates.txt

   Units: lib/ (keyed library:Module); bin/, examples/, bench/ledger/ (the
   product paths); test/; bench/main.ml (retired names only).  A name is
   what the compiler resolved it to, so aliases, opens and includes name
   what they stand for, a value belongs to the unit that declares it
   (Sttc_attack.Encode.encode is sttc_sim:Encode's), and comments name
   nothing.  A reached unit, from the product paths on, reaches each
   library module it names anything of; a unit's own names never count
   for it.  Reported: unreached modules, each `val` of a reached .mli that
   no product path or other reached module names, each optional
   parameter of such a value that none of them passes in a call (a
   parameter left out is not passed), and every retired name. *)

open Typedtree

type cls = Library | Product | Test | Bench

type unit_info = {
  modname : string;  (* Sttc_core__Flow *)
  key : string;  (* sttc_core:Flow, or the .ml path outside lib/ *)
  cls : cls;
  names : (string, unit) Hashtbl.t;  (* the library:Module keys it names *)
  uses : (Shape.Uid.t * string option, unit) Hashtbl.t;
      (* the declarations it names (None), and the labels it passes them *)
}

(* a retired path looks in values, types, or values and the other names
   (modules, constructors, fields) *)
type ns = Value | Type | Name
type pattern = Literal of string | Path of ns list * string list
type retired = { gate : string; pat : pattern; allowed : string list }

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt
let words s = List.filter (( <> ) "") (String.split_on_char ' ' s)
let after s i = String.trim (String.sub s i (String.length s - i))

(* Sttc_core__Flow -> [Sttc_core; Flow]; Dune__exe__Sttc -> [Sttc] *)
let unit_path m =
  let rec go acc i j =
    if j + 1 >= String.length m then List.rev (after m i :: acc)
    else if m.[j] = '_' && m.[j + 1] = '_' then go (String.sub m i (j - i) :: acc) (j + 2) (j + 2)
    else go acc i (j + 1)
  in
  match go [] 0 0 with "Dune" :: "exe" :: p -> p | p -> p

let lib_key = function
  | l :: m :: _ when String.starts_with ~prefix:"Sttc_" l ->
      Some (String.lowercase_ascii l ^ ":" ^ m)
  | _ -> None

(* "*" stands for one or more components, and a path names all under it *)
let rec matches pat comps =
  match (pat, comps) with
  | [], _ -> true
  | "*" :: p, _ :: rest -> matches p rest || matches pat rest
  | x :: p, c :: rest -> x = c && matches p rest
  | _ :: _, [] -> false

let rec contains s sub i =
  i + String.length sub <= String.length s
  && (String.sub s i (String.length sub) = sub || contains s sub (i + 1))

let retired_line gate l =
  let pat, rest =
    if l.[0] = '"' then
      let j = String.index_from l 1 '"' in
      (Literal (String.sub l 1 (j - 1)), words (after l (j + 1)))
    else
      let path p = String.split_on_char '.' p in
      match words l with
      | "type" :: p :: rest -> (Path ([ Type ], path p), rest)
      | "val" :: p :: rest -> (Path ([ Value ], path p), rest)
      | p :: rest -> (Path ([ Value; Name ], path p), rest)
      | [] -> assert false
  in
  { gate; pat; allowed = (match rest with "in" :: units -> units | _ -> []) }

let load file =
  let lists = Hashtbl.create 4 and retired = ref [] and messages = Hashtbl.create 16 in
  let section = ref [] in
  In_channel.with_open_text file In_channel.input_all |> String.split_on_char '\n'
  |> List.iter (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then ()
         else if l.[0] = '[' then begin
           let i = String.index l ']' in
           section := words (String.sub l 1 (i - 1));
           match !section with
           | [ "RETIRED"; gate ] -> Hashtbl.replace messages gate (after l (i + 1))
           | [ ("REACH_EXEMPT" | "VAL_EXEMPT" | "KNOB_EXEMPT") as s ] -> Hashtbl.replace lists s []
           | _ -> failwith (file ^ ": unknown section " ^ l)
         end
         else
           match (!section, String.index_opt l ' ') with
           | [ "RETIRED"; gate ], _ -> retired := retired_line gate l :: !retired
           | [ s ], i ->
               let i = Option.value i ~default:(String.length l) in
               Hashtbl.replace lists s ((String.sub l 0 i, after l i) :: Hashtbl.find lists s)
           | _ -> failwith (file ^ ": a line before any section"));
  let list s = List.rev (Option.value ~default:[] (Hashtbl.find_opt lists s)) in
  (list "REACH_EXEMPT", list "VAL_EXEMPT", list "KNOB_EXEMPT", !retired, messages)

let scan retired messages u source annots =
  let aliases = Hashtbl.create 8 and prefix = ref (unit_path u.modname) in
  let rec comps = function
    | Path.Pident id when Ident.persistent id -> unit_path (Ident.name id)
    | Path.Pident id -> (
        match Hashtbl.find_opt aliases id with Some c -> c | None -> !prefix @ [ Ident.name id ])
    | Path.Pdot (p, s) -> comps p @ [ s ]
    | Path.Papply (p, _) | Path.Pextra_ty (p, _) -> comps p
  in
  let refuse (e : retired) loc what =
    if not (List.exists (fun a -> a = u.key || (a = "test" && u.cls = Test)) e.allowed) then
      fail "%s GATE FAILED: %s:%d: %s: %s" (String.uppercase_ascii e.gate)
        loc.Location.loc_start.pos_fname loc.loc_start.pos_lnum what
        (Hashtbl.find messages e.gate)
  in
  (* a declaration or a name c, in namespace ns *)
  let seen ns loc c =
    (match lib_key c with Some k when k <> u.key -> Hashtbl.replace u.names k () | _ -> ());
    List.iter
      (fun e ->
        match e.pat with
        | Path (nss, p) when List.mem ns nss && matches p c -> refuse e loc (String.concat "." c)
        | _ -> ())
      retired
  in
  let literal loc s =
    List.iter
      (fun e ->
        match e.pat with
        | Literal x when contains s x 0 -> refuse e loc (Printf.sprintf "%S" x)
        | _ -> ())
      retired
  in
  let declared ns loc name = function
    | Shape.Uid.Item { comp_unit; _ } as uid ->
        seen ns loc (unit_path comp_unit @ [ name ]);
        if comp_unit <> u.modname then Hashtbl.replace u.uses (uid, None) ()
    | _ -> ()
  in
  let cstr loc (c : Types.constructor_description) = declared Name loc c.cstr_name c.cstr_uid in
  let field loc (l : Types.label_description) = declared Name loc l.lbl_name l.lbl_uid in
  let define ns loc name = seen ns loc (!prefix @ [ name ]) in
  let alias id p = Option.iter (fun id -> Hashtbl.replace aliases id (comps p)) id in
  let rec strip m = match m.mod_desc with Tmod_constraint (m, _, _, _) -> strip m | d -> d in
  let omitted e =
    e.exp_loc.loc_ghost
    && match e.exp_desc with Texp_construct (_, { cstr_name = "None"; _ }, []) -> true | _ -> false
  in
  let in_module name loc f =
    let saved = !prefix and name = Option.value ~default:"_" name in
    define Name loc name;
    prefix := saved @ [ name ];
    f ();
    prefix := saved
  in
  let super = Tast_iterator.default_iterator in
  let hook f next sub x = f x; next sub x in
  let value loc p (vd : Types.value_description) =
    seen Value loc (comps p);
    declared Value loc (Path.last p) vd.val_uid
  in
  let expr e =
    match e.exp_desc with
    | Texp_ident (p, _, vd) -> value e.exp_loc p vd
    (* a binding operator ([let+], [and+]) names its definition too *)
    | Texp_letop { let_; ands; _ } ->
        List.iter (fun b -> value b.bop_loc b.bop_op_path b.bop_op_val) (let_ :: ands)
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
        List.iter
          (function
            | Asttypes.Optional l, Some a when not (omitted a) ->
                Hashtbl.replace u.uses (vd.val_uid, Some l) ()
            | _ -> ())
          args
    | Texp_construct (_, c, _) -> cstr e.exp_loc c
    | Texp_record { fields; _ } -> Array.iter (fun (l, _) -> field e.exp_loc l) fields
    | Texp_field (_, _, l) | Texp_setfield (_, _, l, _) -> field e.exp_loc l
    | Texp_constant (Const_string (s, _, _)) -> literal e.exp_loc s
    | Texp_letmodule (id, _, _, m, _) -> (
        match strip m with Tmod_ident (p, _) -> alias id p | _ -> ())
    | _ -> ()
  in
  let pat (type k) sub (p : k general_pattern) =
    (match p.pat_desc with
    | Tpat_var (_, name) | Tpat_alias (_, _, name) -> define Value p.pat_loc name.txt
    | Tpat_construct (_, c, _, _) -> cstr p.pat_loc c
    | Tpat_record (fields, _) -> List.iter (fun (_, l, _) -> field p.pat_loc l) fields
    | Tpat_constant (Const_string (s, _, _)) -> literal p.pat_loc s
    | _ -> ());
    super.pat sub p
  in
  let typ t =
    match t.ctyp_desc with Ttyp_constr (p, _, _) -> seen Type t.ctyp_loc (comps p) | _ -> ()
  in
  let module_expr m =
    match m.mod_desc with Tmod_ident (p, _) -> seen Name m.mod_loc (comps p) | _ -> ()
  in
  let module_type m =
    match m.mty_desc with
    | Tmty_ident (p, _) | Tmty_alias (p, _) -> seen Name m.mty_loc (comps p)
    | _ -> ()
  in
  let module_binding sub mb =
    (match strip mb.mb_expr with Tmod_ident (p, _) -> alias mb.mb_id p | _ -> ());
    in_module mb.mb_name.txt mb.mb_loc (fun () -> super.module_binding sub mb)
  in
  let module_declaration sub md =
    (match md.md_type.mty_desc with Tmty_alias (p, _) -> alias md.md_id p | _ -> ());
    in_module md.md_name.txt md.md_loc (fun () -> super.module_declaration sub md)
  in
  let type_declaration td =
    define Type td.typ_loc td.typ_name.txt;
    match td.typ_kind with
    | Ttype_variant cs -> List.iter (fun c -> define Name c.cd_loc c.cd_name.txt) cs
    | Ttype_record ls -> List.iter (fun l -> define Name l.ld_loc l.ld_name.txt) ls
    | _ -> ()
  in
  let it =
    { super with
      expr = hook expr super.expr; pat; typ = hook typ super.typ;
      module_expr = hook module_expr super.module_expr;
      module_type = hook module_type super.module_type;
      open_description =
        hook (fun o -> seen Name o.open_loc (comps (fst o.open_expr))) super.open_description;
      module_binding; module_declaration;
      value_description =
        hook (fun vd -> define Value vd.val_loc vd.val_name.txt) super.value_description;
      type_declaration = hook type_declaration super.type_declaration }
  in
  seen Name (Location.in_file source) !prefix;
  match annots with
  | Cmt_format.Implementation s -> it.structure it s
  | Cmt_format.Interface s -> it.signature it s
  | _ -> ()

(* the values a .mli declares, nested modules included, and the optional
   labels of their own arrows (Module.value?label) *)
let rec exports path (s : signature) =
  let rec knobs t =
    match t.ctyp_desc with
    | Ttyp_arrow (Optional l, _, r) -> l :: knobs r
    | Ttyp_arrow (_, _, r) | Ttyp_poly (_, r) -> knobs r
    | _ -> []
  in
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let v = path ^ "." ^ vd.val_name.txt and uid = vd.val_val.val_uid in
          (v, (uid, None)) :: List.map (fun l -> (v ^ "?" ^ l, (uid, Some l))) (knobs vd.val_desc)
      | Tsig_module { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ };
                      _ } -> exports (path ^ "." ^ m) s
      | _ -> [])
    s.sig_items

let rec cmt_files dir =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then cmt_files p @ acc
      else if Filename.basename dir = "byte" && List.mem (Filename.extension f) [ ".cmt"; ".cmti" ]
      then p :: acc
      else acc)
    [] (Sys.readdir dir)

let () =
  let build, list_file =
    match Sys.argv with
    | [| _; b; l |] -> (b, l)
    | _ -> prerr_endline "usage: checker.exe BUILD_DIR LIST_FILE"; exit 64
  in
  let reach_exempt, val_exempt, knob_exempt, retired, messages = load list_file in
  let units = Hashtbl.create 64 and exported = ref [] in
  let read file =
    let cmt = Cmt_format.read_cmt file in
    match cmt.cmt_sourcefile with
    | Some src when List.mem (Filename.extension src) [ ".ml"; ".mli" ]
                    && cmt.cmt_modname <> "Dune__exe" ->
        let has p = String.starts_with ~prefix:p src in
        let cls =
          if has "lib/" then Library
          else if has "bin/" || has "examples/" || has "bench/ledger/" then Product
          else if has "test/" then Test
          else Bench
        in
        let key = Filename.remove_extension src ^ ".ml" in
        let key = Option.value (lib_key (unit_path cmt.cmt_modname)) ~default:key in
        if not (Hashtbl.mem units cmt.cmt_modname) then
          Hashtbl.replace units cmt.cmt_modname
            { modname = cmt.cmt_modname; key; cls; names = Hashtbl.create 16;
              uses = Hashtbl.create 64 };
        let u = Hashtbl.find units cmt.cmt_modname in
        scan retired messages u src cmt.cmt_annots;
        (match (cls, cmt.cmt_annots) with
        | Library, Interface s ->
            exported := List.map (fun e -> (key, e)) (exports key s) @ !exported
        | _ -> ())
    | _ -> ()
  in
  List.iter (fun d -> List.iter read (cmt_files (Filename.concat build d)))
    [ "lib"; "bin"; "examples"; "bench"; "test" ];
  let units = Hashtbl.fold (fun _ u acc -> u :: acc) units [] in
  let libs = List.filter (fun u -> u.cls = Library) units in
  let reached = Hashtbl.create 64 in
  let rec reach u =
    Hashtbl.iter
      (fun k () ->
        if not (Hashtbl.mem reached k) then begin
          Hashtbl.replace reached k ();
          List.iter (fun v -> if v.key = k then reach v) libs
        end)
      u.names
  in
  List.iter (fun u -> if u.cls = Product then reach u) units;
  (* what product paths and reached modules (false) and tests (true) use *)
  let used = Hashtbl.create 256 in
  List.iter
    (fun u ->
      if u.cls = Product || u.cls = Test || Hashtbl.mem reached u.key then
        Hashtbl.iter (fun use () -> Hashtbl.replace used (u.cls = Test, use) ()) u.uses)
    units;
  let unreached =
    List.sort compare
      (List.filter_map (fun u -> if Hashtbl.mem reached u.key then None else Some u.key) libs)
  in
  let unset, unnamed =
    List.partition (fun (k, _) -> String.contains k '?')
      (List.filter_map
         (fun (owner, (k, use)) ->
           if Hashtbl.mem reached owner && not (Hashtbl.mem used (false, use)) then
             Some (k, Hashtbl.mem used (true, use))
           else None)
         !exported)
  in
  List.iter (fun m ->
      if List.mem_assoc m reach_exempt then print_endline ("unreached (listed): " ^ m)
      else fail "REACHABILITY GATE FAILED: no product path reaches %s" m)
    unreached;
  List.iter (fun (m, _) ->
      if not (List.mem m unreached) then
        fail "REACHABILITY GATE FAILED: %s is reached; drop it from REACH_EXEMPT" m)
    reach_exempt;
  (* each finding needs a line, and each line a reason, a test that names
     it, and no product path that does *)
  let check gate list lines findings ~unlisted ~test ~product =
    List.iter (fun (k, tested) ->
        if not (List.mem_assoc k lines) then fail "%s GATE FAILED: %s" gate (unlisted k)
        else if not tested then fail "%s GATE FAILED: %s lists %s, but no test %s" gate list k test)
      findings;
    List.iter (fun (k, reason) ->
        let kind p = String.starts_with ~prefix:p reason && reason <> p in
        if not (kind "reference:" || kind "seam:") then
          fail "%s GATE FAILED: %s lists %s with a reason that is neither reference: nor seam:"
            gate list k;
        if not (List.mem_assoc k findings) then
          fail "%s GATE FAILED: %s lists %s, which a product path %s; drop its line"
            gate list k product)
      lines
  in
  check "REACHABILITY" "VAL_EXEMPT" val_exempt unnamed ~test:"names it"
    ~unlisted:(( ^ ) "no product path names ") ~product:"names or no reached .mli exports";
  Printf.printf "unnamed values listed in VAL_EXEMPT: %d\n" (List.length val_exempt);
  check "KNOB" "KNOB_EXEMPT" knob_exempt unset ~test:"passes it"
    ~unlisted:(fun k -> "no product path sets " ^ k ^ "; make it a constant")
    ~product:"sets or no reached .mli declares";
  Printf.printf "unset optional parameters listed in KNOB_EXEMPT: %d\n" (List.length knob_exempt);
  let msgs = List.sort_uniq compare !failures in
  List.iter prerr_endline msgs;
  if msgs <> [] then exit 1
