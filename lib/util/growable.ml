type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Growable." ^ name ^ ": index")

let get t i =
  check t i "get";
  t.data.(i)

let set t i x =
  check t i "set";
  t.data.(i) <- x

let grow t x =
  let cap = Array.length t.data in
  let cap' = if cap = 0 then 8 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit t.data 0 data' 0 t.len;
  t.data <- data'

let push t x =
  if t.len = Array.length t.data then grow t x;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.len - 1

let pop t =
  if t.len = 0 then invalid_arg "Growable.pop: empty";
  t.len <- t.len - 1;
  t.data.(t.len)

let last t =
  if t.len = 0 then invalid_arg "Growable.last: empty";
  t.data.(t.len - 1)

let clear t = t.len <- 0

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let exists p t =
  let rec loop i = i < t.len && (p t.data.(i) || loop (i + 1)) in
  loop 0

let to_array t = Array.sub t.data 0 t.len
let to_list t = Array.to_list (to_array t)

let of_list l =
  let t = create () in
  List.iter (fun x -> ignore (push t x)) l;
  t

let truncate t n =
  if n < 0 then invalid_arg "Growable.truncate";
  if n < t.len then t.len <- n
