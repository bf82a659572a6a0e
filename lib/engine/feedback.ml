(* Every Exchange execution reports its input size and the time the
   pool actually saved: [gain_ms = busy - wall], where busy is the
   summed fragment work and wall covers partition, dispatch and the
   fragments themselves.  A positive gain means the Exchange beat
   running its fragments inline — exactly the planner's insertion
   question — so the observations collapse into a single adaptive
   bar: the smallest input size at which an Exchange has been seen to
   pay on this host.  On a 1-core host the gain is always negative
   (wall = busy + partition + dispatch), so the bar only ever rises.

   Stored in an [Atomic] because fragments of concurrently running
   queries may report from different domains; the update is a benign
   last-writer-wins race — this is a heuristic, not an invariant. *)

let unset = 0
let max_bar = 1 lsl 30
let bar = Atomic.make unset
let seen = Atomic.make 0

let note ~rows ~gain_ms =
  if rows > 0 then begin
    Atomic.incr seen;
    let current = Atomic.get bar in
    if gain_ms <= 0.0 then
      (* Lost money at this size: only larger inputs can be worth it. *)
      Atomic.set bar (min max_bar (max current (2 * rows)))
    else
      (* Paid at this size: anything at least this big is fair game. *)
      Atomic.set bar (if current = unset then rows else min current rows)
  end

let min_profitable_rows () =
  match Atomic.get bar with 0 -> None | n -> Some n

let observations () = Atomic.get seen

let reset () =
  Atomic.set bar unset;
  Atomic.set seen 0
