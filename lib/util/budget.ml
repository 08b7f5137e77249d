let check () =
  let d = Domain.DLS.get Deadline.key in
  if d < infinity && Deadline.now_s () > d then raise Deadline.Expired

let run ~seconds f =
  let parent = Domain.DLS.get Deadline.key in
  let now = Deadline.now_s () in
  let deadline = Float.min parent (now +. seconds) in
  if seconds <= 0. || deadline <= now then Error `Timeout
  else begin
    Domain.DLS.set Deadline.key deadline;
    match f () with
    | v ->
        Domain.DLS.set Deadline.key parent;
        if Deadline.now_s () > deadline then Error `Timeout else Ok v
    | exception Deadline.Expired ->
        Domain.DLS.set Deadline.key parent;
        Error `Timeout
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        Domain.DLS.set Deadline.key parent;
        Printexc.raise_with_backtrace e bt
  end
