(** The one request handler behind both transports.

    [sttc protect]/[attack]/[lint] subcommands call {!handle} directly
    (offline transport); the [sttc serve] daemon calls the very same
    function from its worker domains (socket transport).  Any behavioral
    difference between the two would be a bug — the CI serve gate diffs
    their responses byte for byte.

    Budgets: a request's [timeout_s] is a {!Sttc_util.Budget} around
    the whole request, enforced identically on the main domain (offline)
    and on worker domains (daemon), with the same [Error] text; the
    attack harness's per-attack budgets nest inside it.

    Metrics: [serve.requests], [serve.errors] and the
    [serve.request_seconds] histogram. *)

val handle : Session.t -> Request.t -> Response.t
(** Execute one request.  An attack request runs its SAT attacks on
    the calling domain's recycled solver arena ({!Sttc_attack.Sat_attack.run}),
    so a daemon worker keeps one arena across requests; results are
    byte-identical to a fresh solver's. *)

val lint_diagnostics :
  algorithms:Sttc_core.Flow.algorithm list ->
  semantic:bool ->
  seed:int ->
  ?fraction:float ->
  ?budget:int ->
  rules:string list ->
  suppress:string list ->
  Sttc_netlist.Netlist.t ->
  (Sttc_lint.Diagnostic.t list, string) result
(** The lint pipeline shared with the CLI's baseline modes: structural
    pack, optional semantic pack, per-algorithm hybrid security/semantic
    packs, then {!Sttc_lint.Lint.apply} with [rules]/[suppress].
    Rejects unknown rule names up front so a typo cannot silently
    disable the gate. *)
