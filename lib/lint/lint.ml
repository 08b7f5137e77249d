let catalog = Structural.rules @ Security_rules.rules @ Semantic_rules.rules

let find_rule name =
  let name = String.lowercase_ascii name in
  List.find_opt
    (fun (r : Structural.rule) ->
      String.lowercase_ascii r.Structural.id = name
      || String.lowercase_ascii r.Structural.alias = name)
    catalog

let packs =
  [
    ("STR", "structural: netlist well-formedness", Structural.rules);
    ("SEC", "security: selection invariants (Eqs. 1-3)", Security_rules.rules);
    ("SEM", "semantic: dataflow + SAT-proved findings", Semantic_rules.rules);
  ]

let catalog_text () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "rule catalog:\n";
  List.iter
    (fun (_, heading, rules) ->
      Buffer.add_string buf (Printf.sprintf "\n%s\n" heading);
      List.iter
        (fun (r : Structural.rule) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s  %-24s %-8s %s\n" r.Structural.id
               r.Structural.alias
               (Diagnostic.severity_name r.Structural.severity)
               r.Structural.doc))
        rules)
    packs;
  Buffer.contents buf

let apply ?(only = []) ?(suppress = []) ?baseline ds =
  let ds = Diagnostic.filter_rules ~only ds in
  let ds = Diagnostic.suppress ~rules:suppress ds in
  let ds =
    match baseline with
    | None -> ds
    | Some b -> Diagnostic.apply_baseline b ds
  in
  List.sort Diagnostic.compare ds

let exit_code ds = if Diagnostic.errors ds > 0 then 1 else 0
