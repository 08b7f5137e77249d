(** Facade over the lint subsystem: rule catalog, combined runs, and the
    CI gate.

    Typical use:
    {[
      let ds = Lint.structural netlist in
      print_string (Diagnostic.render_text ~design ds);
      exit (Lint.exit_code ds)
    ]} *)

val catalog : Structural.rule list
(** Every rule of all three packs — structural, security, semantic — in
    ID order within each pack. *)

val find_rule : string -> Structural.rule option
(** Look up by ID or alias, case-insensitively; covers STR, SEC and SEM
    rules alike. *)

val catalog_text : unit -> string
(** Human-readable rule listing for [--list-rules], grouped by pack. *)

val structural :
  ?only:string list ->
  ?library:Sttc_tech.Library.t ->
  Sttc_netlist.Netlist.t ->
  Diagnostic.t list
(** The structural pack on a netlist ({!Structural.check}). *)

val semantic :
  ?only:string list -> Semantic_rules.view -> Diagnostic.t list
(** The semantic pack ({!Semantic_rules.run}): dataflow- and SAT-backed
    findings, including the Eq. 1 independent-testability prover. *)

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
