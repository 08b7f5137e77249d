(** The canonical typed request surface of the sttc API.

    One request type serves two transports: the [sttc] CLI subcommands
    construct a {!t} and dispatch it through {!Handler.handle} in
    process, and the [sttc serve] daemon parses the same shape from
    newline-delimited JSON frames on a Unix-domain socket.  There is no
    second, CLI-only code path — byte-identical requests produce
    byte-identical responses on either transport.

    Wire form: one JSON object per line.  Common fields: ["verb"]
    (required), ["id"] (optional, echoed in the response), ["timeout_s"]
    (optional per-request wall budget).  Per-verb fields reuse the
    codecs of the subsystems they configure — {!Sttc_core.Flow}
    algorithms, {!Sttc_campaign.Manifest} protect configs and
    {!Sttc_attack.Harness.Config} attack configs — so a campaign
    manifest entry, a CLI flag set and a serve request all parse through
    the same schema. *)

type source =
  | Named of string
      (** a bundled benchmark ({!Sttc_netlist.Iscas_profiles} twin or
          embedded genuine circuit), resolved via
          {!Sttc_experiments.Runner.build_circuit} *)
  | Inline of { name : string; text : string }
      (** .bench source shipped in the request; [name] becomes the
          design name (the CLI passes the input file's basename so
          responses match file-based runs byte for byte) *)

type protect = {
  source : source;
  algorithm : Sttc_core.Flow.algorithm;
  config : Sttc_campaign.Manifest.config;
      (** fraction / hardening, the manifest schema *)
  seed : int;
  backend : string;
      (** protection backend name ({!Sttc_backend.Backend.names});
          ["stt"] when absent, omitted from the wire form at that
          default so pre-backend requests stay byte-identical *)
  sign_off : bool;  (** SAT-verify programmed hybrid == original *)
  emit_foundry : bool;  (** include the foundry-view .bench text *)
  emit_bitstream : bool;  (** include the provisioning bitstream *)
  emit_verilog : bool;  (** include programmed-view Verilog *)
  timing : bool;
      (** report measured wall-clock in the response; [false] (the
          default) zeroes the seconds fields so responses are
          byte-deterministic *)
}

type attack = {
  source : source;
  algorithm : Sttc_core.Flow.algorithm;
  seed : int;  (** protection seed (the attack budgets live in [config]) *)
  backend : string;
      (** backend for both the defence and the attacker model; same
          default and wire behaviour as {!protect.backend} *)
  config : Sttc_attack.Harness.Config.t;
  timing : bool;
}

type lint = {
  source : source;
  algorithms : Sttc_core.Flow.algorithm list;
      (** also lint each hybrid; [[]] = structural rules only *)
  semantic : bool;
  seed : int;
  fraction : float option;
  budget : int option;  (** semantic SAT conflict budget *)
  rules : string list;
  suppress : string list;
  format : [ `Text | `Json ];
}

type payload =
  | Protect of protect
  | Attack of attack
  | Lint of lint
  | Stats  (** live metrics snapshot of the daemon *)
  | Ping of { sleep_s : float }
      (** liveness probe; [sleep_s > 0] holds a worker for that long —
          a load-testing aid, clamped server-side *)
  | Shutdown

type t = { id : string option; timeout_s : float option; payload : payload }

val verb : payload -> string

val to_string : t -> string
(** Minified single-line JSON — exactly one protocol frame, sans the
    trailing newline. *)

val of_string : string -> (t, string) result
