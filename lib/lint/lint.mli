(** Facade over the lint subsystem: rule catalog, post-processing, and
    the CI gate.  The packs run through their own modules
    ({!Structural.check}, {!Security_rules.run}, {!Semantic_rules.run}).

    Typical use:
    {[
      let ds = Lint.apply ~only (Structural.check netlist) in
      print_string (Diagnostic.render_text ~design ds);
      exit (Lint.exit_code ds)
    ]} *)

val find_rule : string -> Structural.rule option
(** Look up by ID or alias, case-insensitively, in the catalog of all
    three packs: STR, SEC and SEM rules alike. *)

val catalog_text : unit -> string
(** Human-readable rule listing for [--list-rules], grouped by pack. *)

val apply :
  ?only:string list ->
  ?suppress:string list ->
  ?baseline:Diagnostic.baseline ->
  Diagnostic.t list ->
  Diagnostic.t list
(** Post-process a diagnostic list: keep [only], drop [suppress], drop
    baselined entries, sort worst-first. *)

val exit_code : Diagnostic.t list -> int
(** 0 when no error-severity diagnostic remains, 1 otherwise — the CI
    contract of [sttc lint]. *)
