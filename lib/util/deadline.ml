(* The state behind {!Budget}, private to this library: {!Pool} reads it
   too, to carry a submitting domain's deadline into its tasks. *)

exception Expired

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* The innermost installed deadline on this domain, on the [now_s]
   clock; [infinity] when no budget is installed. *)
let key : float Domain.DLS.key = Domain.DLS.new_key (fun () -> infinity)
