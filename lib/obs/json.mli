(** Minimal JSON tree, printer, parser and field readers.

    Every JSON file and frame of the project goes through here: the
    observability exporters write traces and metrics, and the decoders
    read serve frames and replies, campaign manifests and reports,
    harness configs and metrics files back, all with the field readers
    below, so a wrong-typed or missing field is refused the same way
    everywhere.  There is no JSON library in the toolchain.  The dialect
    is plain RFC 8259 minus the corner cases the exporters never
    produce: numbers are OCaml [int]s or finite [float]s, strings are
    UTF-8 carried verbatim (with [\uXXXX] escapes decoded on input). *)

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

(** {1 Field readers}

    A decoder reads each field of an object as required ({!field}), with
    a default ({!field_or}) or as an option ({!field_opt}), and names the
    field's {!kind}.  [ctx] prefixes every error with the decoder's
    context: ["ctx: not a JSON object"], ["ctx: missing \"k\""] or
    ["ctx: \"k\" must be an integer"].  A [null] field counts as a
    missing one. *)

type 'a kind
(** What a field must hold: {!int}, {!number} (an [Int] or a [Float]),
    {!bool}, {!string}, {!obj} (an object, left for its own decoder),
    {!any} value (for a decoder that takes several shapes), or a {!list}
    whose elements are all of one kind. *)

val int : int kind
val number : float kind
val bool : bool kind
val string : string kind
val obj : t kind
val any : t kind
val list : 'a kind -> 'a list kind

val field : string -> 'a kind -> string -> t -> ('a, string) result
(** [field ctx kind k j] — the required field [k] of the object [j]. *)

val field_or : string -> 'a kind -> string -> 'a -> t -> ('a, string) result
(** [field_or ctx kind k default j] — [default] when [k] is missing. *)

val field_opt : string -> 'a kind -> string -> t -> ('a option, string) result

val in_range : string -> string -> string -> bool -> (unit, string) result
(** [in_range ctx k range ok] — [Error "ctx: \"k\" must be <range>"]
    unless [ok]: a field of the right kind whose value is out of range. *)

val all : ('a, string) result list -> ('a list, string) result
(** The first error of a decoded list, or all of its values. *)
