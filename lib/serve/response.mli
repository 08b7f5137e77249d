(** The typed response surface matching {!Request}.

    Every response is one JSON object per line.  [Ok] carries the
    verb-specific payload, [Error] a message, and [Overloaded] is the
    typed backpressure reply the daemon sends instead of queueing
    unboundedly — clients must treat it as "retry later", never as a
    protocol failure. *)

type protect = {
  report : string;
      (** the {!Sttc_core.Flow.pp_result} rendering, exactly what the
          offline CLI prints (trailing newline included) *)
  foundry_bench : string option;  (** when [emit_foundry] was set *)
  bitstream : string option;
  programming_cost : string option;
      (** the {!Sttc_core.Provision.pp_cost} rendering, shipped with the
          bitstream *)
  verilog : string option;
  sign_off : bool option;  (** when [sign_off] was requested *)
}

type lint = {
  rendered : string;  (** text or JSON, per the request's [format] *)
  exit_code : int;  (** {!Sttc_lint.Lint.exit_code} of the diagnostics *)
}

type payload =
  | Protect of protect
  | Attack of {
      campaign : Sttc_attack.Harness.campaign;
      rendered : string;  (** the {!Sttc_attack.Harness.pp_campaign} text *)
    }
  | Lint of lint
  | Stats of Sttc_obs.Metrics.snapshot
  | Pong
  | Shutting_down

type t =
  | Ok of { id : string option; payload : payload }
  | Error of { id : string option; message : string }
  | Overloaded of { id : string option }

val to_string : t -> string
(** Minified single-line JSON, sans trailing newline — both transports
    render responses through this one function, which is what makes the
    CI byte-for-byte diff possible.  An attack campaign's [sat_stats]
    ride as a {!Sttc_obs.Metrics} snapshot object. *)

val of_string : string -> (t, string) result
(** The inverse of {!to_string}, strict as requests are: a key outside
    the reply's table is refused by name. *)
