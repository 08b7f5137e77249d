type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json.to_string: non-finite float";
  (* shortest representation that still round-trips a telemetry value;
     a bare integer mantissa gets a ".0" so the reader sees a float *)
  let s = Printf.sprintf "%.12g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
  else s ^ ".0"

let to_string ?(minify = false) t =
  let buf = Buffer.create 1024 in
  let indent n =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * n) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            go (depth + 1) x)
          xs;
        indent depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            indent (depth + 1);
            escape buf k;
            Buffer.add_string buf (if minify then ":" else ": ");
            go (depth + 1) v)
          kvs;
        indent depth;
        Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* ---------- parsing ---------- *)

exception Parse of int * string

(* RFC 8259's number grammar, which OCaml's own conversions are looser
   than (they take "+5", "01", "1." and ".5"):
   -? (0 | [1-9][0-9]* ) (\. [0-9]+)? ([eE] [+-]? [0-9]+)? *)
let rfc_number s =
  let n = String.length s in
  let is_digit i = i < n && '0' <= s.[i] && s.[i] <= '9' in
  (* the index after the run of digits from [i], which must not be empty *)
  let digits i =
    if not (is_digit i) then None
    else
      let j = ref i in
      while is_digit !j do
        incr j
      done;
      Some !j
  in
  let int_part i =
    if i < n && s.[i] = '0' then Some (i + 1) else digits i
  in
  let frac i =
    if i < n && s.[i] = '.' then digits (i + 1) else Some i
  in
  let exp i =
    if i < n && (s.[i] = 'e' || s.[i] = 'E') then
      let i = i + 1 in
      digits (if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i)
    else Some i
  in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  Option.bind (Option.bind (int_part start) frac) exp = Some n

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some got when got = c -> advance ()
    | Some got -> fail (Printf.sprintf "expected '%c', got '%c'" c got)
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("invalid literal, expected " ^ word)
  in
  let utf8_of_code buf c =
    let cont shift = Char.chr (0x80 lor ((c lsr shift) land 0x3F)) in
    if c < 0x80 then Buffer.add_char buf (Char.chr c)
    else if c < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
      Buffer.add_char buf (cont 0)
    end
    else if c < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
      Buffer.add_char buf (cont 6);
      Buffer.add_char buf (cont 0)
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (c lsr 18)));
      Buffer.add_char buf (cont 12);
      Buffer.add_char buf (cont 6);
      Buffer.add_char buf (cont 0)
    end
  in
  (* the four hex digits of a \u escape, exactly *)
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail ("bad \\u escape " ^ String.sub text !pos 4)
    in
    let v = ref 0 in
    for i = !pos to !pos + 3 do
      v := (!v lsl 4) lor digit text.[i]
    done;
    pos := !pos + 4;
    !v
  in
  let is_low c = 0xDC00 <= c && c <= 0xDFFF in
  (* a high surrogate must be followed by an escaped low one: together
     they are one code point above U+FFFF *)
  let code_point () =
    let c = hex4 () in
    if is_low c then fail "lone low surrogate"
    else if c < 0xD800 || c > 0xDBFF then c
    else if !pos + 2 <= n && String.sub text !pos 2 = "\\u" then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if not (is_low lo) then fail "lone high surrogate";
      0x10000 + ((c - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail "lone high surrogate"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = text.[!pos] in
        advance ();
        if c = '"' then Buffer.contents buf
        else if c = '\\' then begin
          (match peek () with
          | None -> fail "unterminated escape"
          | Some e ->
              advance ();
              (match e with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' -> utf8_of_code buf (code_point ())
              | c -> fail (Printf.sprintf "bad escape '\\%c'" c)));
          go ()
        end
        else begin
          Buffer.add_char buf c;
          go ()
        end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      advance ()
    done;
    let s = String.sub text start (!pos - start) in
    if not (rfc_number s) then fail ("invalid number " ^ s);
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f when Float.is_finite f -> Float f
        | Some _ -> fail ("number out of range " ^ s)
        | None -> fail ("invalid number " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input after document";
    v
  with
  | v -> Ok v
  | exception Parse (off, msg) ->
      Error (Printf.sprintf "offset %d: %s" off msg)

(* ---------- accessors ---------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

(* ---------- kinds ---------- *)

(* [read must j]: [must] turns what the value must be ("an integer",
   "at least 1") into the whole error, so a kind words its refusal
   without knowing the field or decoder it serves *)
type 'a kind = {
  many : string;
  read : (string -> string) -> t -> ('a, string) result;
  write : 'a -> t;
}

let scalar what many read write =
  let read must j = Option.to_result ~none:(must what) (read j) in
  { many; read; write }

let int = scalar "an integer" "integers" to_int_opt (fun i -> Int i)
let number = scalar "a number" "numbers" to_float_opt (fun f -> Float f)

let bool =
  scalar "a boolean" "booleans"
    (function Bool b -> Some b | _ -> None)
    (fun b -> Bool b)

let string = scalar "a string" "strings" to_string_opt (fun s -> String s)

let obj =
  scalar "an object" "objects" (function Obj _ as j -> Some j | _ -> None) Fun.id

let all results =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | Ok x :: rest -> go (x :: acc) rest
    | Error e :: _ -> Error e
  in
  go [] results

let list k =
  let what = "a list of " ^ k.many in
  let read must = function
    | List xs -> all (List.map (k.read (fun _ -> must what)) xs)
    | _ -> Error (must what)
  in
  { many = "lists"; read; write = (fun xs -> List (List.map k.write xs)) }

let within range ok k =
  let read must j =
    match k.read must j with
    | Ok x when not (ok x) -> Error (must range)
    | r -> r
  in
  { k with read }

let nat = within "at least 0" (fun n -> n >= 0) int
let duration = within "at least 0" (fun s -> s >= 0.) number

let enum cases =
  let what =
    match List.rev_map (fun (name, _) -> Printf.sprintf "%S" name) cases with
    | last :: (_ :: _ as rest) -> String.concat ", " (List.rev rest) ^ " or " ^ last
    | names -> String.concat "" names
  in
  let read must = function
    | String s -> Option.to_result ~none:(must what) (List.assoc_opt s cases)
    | _ -> Error (must "a string")
  in
  let write v = String (fst (List.find (fun (_, w) -> w = v) cases)) in
  { many = "strings"; read; write }

let refusal k v =
  match k.read Fun.id (k.write v) with Ok _ -> None | Error range -> Some range

(* ---------- record codecs ---------- *)

(* [take ctx kvs] decodes this part of a record from the object's
   fields, [emit] renders it; [keys] in emit order *)
type ('r, 'a) fields = {
  keys : string list;
  emit : 'r -> (string * t) list;
  take : string -> (string * t) list -> ('a, string) result;
}

(* one member: a [null] counts as missing, and [absent ctx] decides *)
let one name read emit absent =
  let take ctx kvs =
    match List.assoc_opt name kvs with
    | None | Some Null -> absent ctx
    | Some v -> read (Printf.sprintf "%s: %S must be %s" ctx name) v
  in
  { keys = [ name ]; emit; take }

let missing name ctx = Error (Printf.sprintf "%s: missing %S" ctx name)
let always name k proj r = [ (name, k.write (proj r)) ]
let req name k proj = one name k.read (always name k proj) (missing name)

let field ctx k name = function
  | Obj kvs -> (one name k.read (fun () -> []) (missing name)).take ctx kvs
  | _ -> Error (ctx ^ ": not a JSON object")

let opt name k proj =
  let emit r = Option.fold ~none:[] ~some:(fun v -> [ (name, k.write v) ]) (proj r) in
  one name (fun must j -> Result.map Option.some (k.read must j)) emit (fun _ -> Ok None)

let with_default name k default proj =
  one name k.read (always name k proj) (fun _ -> Ok default)

let omit_default name k default proj =
  let emit r = if proj r = default then [] else always name k proj r in
  one name k.read emit (fun _ -> Ok default)

let tag name value = req name (enum [ (value, ()) ]) ignore
let no_fields = { keys = []; emit = (fun _ -> []); take = (fun _ _ -> Ok ()) }
let ( let+ ) f g = { f with take = (fun ctx kvs -> Result.map g (f.take ctx kvs)) }

let ( and+ ) a b =
  let both x = Result.map (fun y -> (x, y)) in
  let take ctx kvs = Result.bind (a.take ctx kvs) (fun x -> both x (b.take ctx kvs)) in
  { keys = a.keys @ b.keys; emit = (fun r -> a.emit r @ b.emit r); take }

type 'r record = { ctx : string; fields : ('r, 'r) fields }

let record ctx fields = { ctx; fields }
let emit r x = r.fields.emit x
let encode r x = Obj (emit r x)
let mine r (k, _) = List.mem k r.fields.keys

let strict r kvs =
  match List.find_opt (fun kv -> not (mine r kv)) kvs with
  | Some (k, _) -> Error (Printf.sprintf "%s: unknown field %S" r.ctx k)
  | None -> r.fields.take r.ctx kvs

let on_object r f = function
  | Obj kvs -> f kvs
  | _ -> Error (r.ctx ^ ": not a JSON object")

let decode r = on_object r (strict r)

let take r =
  on_object r (fun kvs ->
      let own, rest = List.partition (mine r) kvs in
      Result.map (fun x -> (x, Obj rest)) (r.fields.take r.ctx own))

let nested r =
  let read must = function Obj kvs -> strict r kvs | _ -> Error (must "an object") in
  { many = "objects"; read; write = encode r }
