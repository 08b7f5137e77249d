(** Diagnostics: the currency of the lint subsystem.

    A diagnostic carries a stable rule ID (e.g. ["STR001"]), a
    human-readable alias (["comb-loop"]), a severity, an optional
    gate-level location (the node name) and a message.  Renderers produce
    the CLI's text and JSON outputs; suppression and baselines let CI
    gate on {e new} findings only. *)

type severity = Error | Warning | Info

val severity_name : severity -> string
(** ["error"] / ["warning"] / ["info"]. *)

type t = {
  rule : string;  (** stable ID, e.g. "STR001" *)
  alias : string;  (** slug, e.g. "comb-loop" *)
  severity : severity;
  node : string option;  (** gate-level location (node name) if any *)
  detail : string;
}

val make :
  rule:string -> alias:string -> severity:severity -> ?node:string ->
  string -> t

val compare : t -> t -> int
(** Severity (worst first), then rule ID, then location. *)

val errors : t list -> int
(** Count of error-severity diagnostics. *)

val filter_rules : only:string list -> t list -> t list
(** Keep only diagnostics whose rule ID or alias is listed (matched
    case-insensitively); an empty list keeps everything. *)

val suppress : rules:string list -> t list -> t list
(** Drop diagnostics whose rule ID or alias is listed (matched
    case-insensitively). *)

(** {1 Baselines}

    A baseline is the set of diagnostic keys already known and
    accepted; applying it drops exactly those, so CI fails only on new
    findings.  A diagnostic's key is ["RULE@node"] (or ["RULE@-"]
    without a node).  The serialized form is one key per line ([#]
    comments allowed). *)

type baseline

val empty_baseline : baseline
val baseline_of_diagnostics : t list -> baseline
val baseline_to_string : baseline -> string
val baseline_of_string : string -> baseline
val apply_baseline : baseline -> t list -> t list

(** {1 Rendering} *)

val to_text : t -> string

val render_text : design:string -> t list -> string
(** Sorted report with a [summary:] trailer line. *)

val render_json : design:string -> t list -> string
(** Stable schema:
    {v
    { "design": string,
      "diagnostics": [ { "rule": string, "alias": string,
                         "severity": "error"|"warning"|"info",
                         "node": string|null, "detail": string } ],
      "errors": int, "warnings": int, "infos": int }
    v} *)
