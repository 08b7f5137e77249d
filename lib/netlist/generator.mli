(** Synthetic sequential benchmark generator.

    Produces circuits with controlled structural statistics — gate count,
    flip-flop count, I/O counts, combinational depth, fan-in mix — which is
    what the paper's experiments actually exercise (the selection
    algorithms never look at the Boolean functions, only at structure).
    See DESIGN.md §2 for why this substitutes for the genuine ISCAS'89
    netlists.

    Construction is levelized: gates are placed on [levels] combinational
    levels; a gate's first fanin comes from the previous level (pinning its
    level) and the rest from any earlier level, with primary inputs and
    flip-flop outputs forming level 0.  Flip-flop D-inputs and primary
    outputs are wired to late-level signals, preferring gates that would
    otherwise be dangling. *)

type spec = {
  design_name : string;
  n_pi : int;  (** >= 1 *)
  n_po : int;  (** >= 1 *)
  n_ff : int;  (** >= 0 *)
  n_gates : int;  (** combinational gates, >= 1 *)
  levels : int;  (** target combinational depth, >= 1 *)
}

val generate : seed:int -> spec -> Netlist.t
(** Deterministic in [seed] and [spec].  Raises [Invalid_argument] on
    nonsensical specs. *)

(** {1 Parameterized scale families}

    Structural profiles scaling from 10^3 to 10^6 gates, used by the
    [bench -- scale] sweep and the CI scale smoke gate. *)

type profile =
  | Slike  (** ISCAS'89-like interface/state ratios, depth ~ 2 log2 n *)
  | Wide  (** shallow datapath: few levels, huge level width *)
  | Deep  (** long combinational chains: hundreds of levels *)
  | Fanout_heavy
      (** [Slike] structure plus hub nets: ~30% of non-pinning fanins draw
          from a small pool of level-0 signals, producing the high-fanout
          nets (resets, enables) that stress incremental cone sizes *)

val profile_of_string : string -> (profile, string) result
(** Reads "slike" / "wide" / "deep" / "fanout" (the prefix of a family's
    design name); also accepts "s-like" and "fanout-heavy". *)

val generate_family : seed:int -> ?profile:profile -> gates:int -> unit -> Netlist.t
(** [generate] on the [profile]'s spec for [gates] (plus the hub-bias wiring for
    [Fanout_heavy]).  Deterministic in [seed], [profile] and [gates];
    validated (builder invariants + acyclicity) up to 10^6 gates. *)
