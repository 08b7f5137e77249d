(** Minimal JSON tree, printer, parser and record codecs.

    Every JSON file and frame of the project goes through here: the
    observability exporters write traces and metrics, and serve frames
    and replies, campaign manifests, harness configs, algorithms and
    metrics series are each declared once as a {!record} table that both
    encodes and decodes, so a wrong-typed, out-of-range, missing or
    unknown field is refused the same way everywhere; the report and
    trace checks read fields with {!field}.  There is no JSON library in
    the toolchain.  The dialect is plain RFC 8259 minus the corner cases
    the exporters never produce: numbers are OCaml [int]s or finite
    [float]s, strings are UTF-8 carried verbatim (with [\uXXXX] escapes
    decoded on input). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; [minify:false] (default) pretty-prints with two-space
    indentation, the format the CI gate diffs and humans read.  Floats
    must be finite: NaN or infinities raise [Invalid_argument] rather
    than emit invalid JSON. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; the error is ["offset N: message"].
    Trailing non-whitespace input is an error. *)

val member : string -> t -> t option
(** [member k (Obj ...)] — field lookup; [None] on missing key or
    non-object. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** Accepts both [Int] and [Float] nodes. *)

val to_string_opt : t -> string option

(** {1 Kinds}

    What a field holds, both ways.  [read must j] decodes [j] and words
    a refusal as [must what] (["an integer"], ["at least 1"]), which the
    caller makes the whole error: ["ctx: \"k\" must be an integer"].  A
    decoder of several shapes (a bare name or an object) writes its own
    kind; [many] is the plural a {!list} of it is refused with. *)

type 'a kind = {
  many : string;
  read : (string -> string) -> t -> ('a, string) result;
  write : 'a -> t;
}

val int : int kind
val number : float kind
(** An [Int] or a [Float], written as a [Float]. *)

val bool : bool kind
val string : string kind
val obj : t kind
val list : 'a kind -> 'a list kind

val within : string -> ('a -> bool) -> 'a kind -> 'a kind
(** [within range ok k] refuses what [ok] rejects: ["must be <range>"]. *)

val nat : int kind
(** At least 0. *)

val duration : float kind
(** Seconds, at least 0. *)

val enum : (string * 'a) list -> 'a kind
(** One of the names: ["must be \"text\" or \"json\""]. *)

val refusal : 'a kind -> 'a -> string option
(** [Some range] when the kind refuses the value: a command-line flag's
    check against the wire field of the same value. *)

val all : ('a, string) result list -> ('a list, string) result
(** The first error of a decoded list, or all of its values. *)

(** {1 Records}

    A record is one table of members, each a name, a kind, a projection
    and a presence rule; the table's order is the emit order, and it
    gives the encoder, the strict decoder and the key set:

    {[
      Json.(
        record "config"
          (let+ label = with_default "label" string "default" (fun c -> c.label)
           and+ harden = omit_default "harden" bool false (fun c -> c.harden) in
           { label; harden }))
    ]}

    Decoding refuses a non-object (["config: not a JSON object"]), a key
    outside the table (["config: unknown field \"k\""]), a missing
    required field (["config: missing \"k\""]) and a wrong-typed or
    out-of-range one.  A [null] field counts as missing; of a repeated
    key the first counts. *)

type ('r, 'a) fields
(** Members of a record ['r] that decode to ['a]. *)

val req : string -> 'a kind -> ('r -> 'a) -> ('r, 'a) fields
(** Required. *)

val opt : string -> 'a kind -> ('r -> 'a option) -> ('r, 'a option) fields
(** Optional, emitted when [Some]. *)

val with_default : string -> 'a kind -> 'a -> ('r -> 'a) -> ('r, 'a) fields
(** The default when missing, always emitted. *)

val omit_default : string -> 'a kind -> 'a -> ('r -> 'a) -> ('r, 'a) fields
(** The default when missing, not emitted when equal to it. *)

val tag : string -> string -> ('r, unit) fields
(** The required constant [k: v] a decoder dispatches on to pick a
    variant's table. *)

val no_fields : ('r, unit) fields
val ( let+ ) : ('r, 'a) fields -> ('a -> 'b) -> ('r, 'b) fields
val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields

type 'r record

val record : string -> ('r, 'r) fields -> 'r record
(** [record ctx fields]: [ctx] starts every error. *)

val encode : 'r record -> 'r -> t
val decode : 'r record -> t -> ('r, string) result

val emit : 'r record -> 'r -> (string * t) list
(** {!encode}'s fields, for an object several tables share. *)

val take : 'r record -> t -> ('r * t, string) result
(** Decode the table's keys of an object, and return its other keys for
    the next table: a frame's header, then its verb's fields. *)

val nested : 'r record -> 'r kind
(** The record as a field's value. *)

val field : string -> 'a kind -> string -> t -> ('a, string) result
(** [field ctx kind k j]: the required field [k] of [j], for a decoder
    that dispatches on it and the checks that decode no record. *)
