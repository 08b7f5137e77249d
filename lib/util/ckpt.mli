(** Versioned, crash-safe [Marshal] containers.

    Checkpoint and shard-interchange files are OCaml [Marshal] payloads,
    which are fast and exact but dangerous to read blind: feeding
    [Marshal.from_channel] a file written by an older build (or a file
    truncated by a crash) is undefined behaviour territory.  This module
    fences the payload behind a plain-text header line that is validated
    {e before} any unmarshalling happens:

    {v sttc-ckpt/1 <magic>\n<marshal bytes> v}

    where [<magic>] names the payload type and its format version
    (e.g. ["campaign-shard-rows-v1"]).  A file whose header does not match
    byte-for-byte is rejected without ever reaching [Marshal]; a file
    whose payload is truncated or corrupt is rejected by the exception
    fence around the unmarshal itself.

    Writes are atomic (temp file + [rename] in the same directory), so a
    kill at any point leaves either the previous file or the new one on
    disk — never a torn hybrid.  That makes rejected reads safe to treat
    as "retry from scratch". *)

type error =
  [ `Missing  (** no file at that path *)
  | `Rejected of string
    (** wrong container header, wrong magic, truncated or corrupt
        payload — the reason says which *) ]

val error_to_string : error -> string

val save : string -> magic:string -> 'a -> unit
(** [save path ~magic v] writes the container atomically.  [magic] must
    be non-empty and free of newlines ([Invalid_argument] otherwise). *)

val load : string -> magic:string -> ('a, error) result
(** [load path ~magic] validates the header line against this library's
    container version and [magic], then unmarshals the payload.  Never
    raises on bad input — every failure mode is a typed [error].

    The type ['a] is the caller's claim, exactly as with [Marshal]; the
    [magic] string is the discipline that keeps that claim honest, so
    bump it whenever the payload type changes. *)
