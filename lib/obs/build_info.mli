(** Build/runtime provenance, stamped into every trace and metrics file
    and printed by [sttc version].

    A trace that cannot be tied back to the build that produced it is
    noise, so the same metadata block flows to all three consumers.  The
    commit hash is read from the [STTC_COMMIT] environment variable
    (release scripts export it; development builds report ["unknown"]) —
    shelling out to git at build time would make builds non-hermetic. *)

val version : string
(** The tool version (also used by the CLI's [--version]). *)

val to_fields : unit -> (string * Json.t) list
(** The metadata block: tool, version, commit, OCaml version, OS type,
    word size.  Deterministic for a given build and environment. *)

val to_text : unit -> string
(** Human rendering for [sttc version], one field per line. *)
