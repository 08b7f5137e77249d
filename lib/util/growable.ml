type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Growable.get: index";
  t.data.(i)

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

let to_array t = Array.sub t.data 0 t.len
let to_list t = Array.to_list (to_array t)

