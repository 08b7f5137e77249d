type v = Zero | One | X

let of_bool b = if b then One else Zero

let lnot = function Zero -> One | One -> Zero | X -> X

let land_ a b =
  match (a, b) with
  | Zero, _ | _, Zero -> Zero
  | One, One -> One
  | _ -> X

let lor_ a b =
  match (a, b) with
  | One, _ | _, One -> One
  | Zero, Zero -> Zero
  | _ -> X

let lxor_ a b =
  match (a, b) with
  | X, _ | _, X -> X
  | One, One | Zero, Zero -> Zero
  | _ -> One

let land_n arr = Array.fold_left land_ One arr
let lor_n arr = Array.fold_left lor_ Zero arr
let lxor_n arr = Array.fold_left lxor_ Zero arr

let eval_gate fn inputs =
  if Array.length inputs <> Gate_fn.arity fn then
    invalid_arg "Ternary.eval_gate: arity";
  match fn with
  | Gate_fn.Buf -> inputs.(0)
  | Gate_fn.Not -> lnot inputs.(0)
  | Gate_fn.And _ -> land_n inputs
  | Gate_fn.Nand _ -> lnot (land_n inputs)
  | Gate_fn.Or _ -> lor_n inputs
  | Gate_fn.Nor _ -> lnot (lor_n inputs)
  | Gate_fn.Xor _ -> lxor_n inputs
  | Gate_fn.Xnor _ -> lnot (lxor_n inputs)

let eval_truth table inputs =
  let n = Truth.arity table in
  if Array.length inputs <> n then invalid_arg "Ternary.eval_truth: arity";
  (* Fold over all rows compatible with the known inputs. *)
  let out = ref None and conflict = ref false in
  for r = 0 to (1 lsl n) - 1 do
    if not !conflict then begin
      let compatible = ref true in
      for k = 0 to n - 1 do
        let bit = (r lsr k) land 1 = 1 in
        match inputs.(k) with
        | Zero -> if bit then compatible := false
        | One -> if not bit then compatible := false
        | X -> ()
      done;
      if !compatible then
        let v = Truth.row table r in
        match !out with
        | None -> out := Some v
        | Some v0 -> if v0 <> v then conflict := true
    end
  done;
  if !conflict then X
  else match !out with None -> X | Some v -> of_bool v

let equal a b = a = b
