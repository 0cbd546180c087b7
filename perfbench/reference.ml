(* A fixed reference workload that reads the host's current speed. It
   uses only the standard library — none of the simulator's code — so a
   change to the simulator cannot move it.

   The development host (a 2-core cloud VM) slowed by up to a third for
   minutes at a time, on the same code. A loop that touches only a few
   cache lines did not follow those spells; this one allocates and
   searches a 60,000-node map, as the simulator allocates and chases
   pointers, and its fastest time followed the [fuzz] workload's
   [wall_s] at r = 0.97 over eight alternating runs. *)

module M = Map.Make (Int)

let once () =
  let st = Random.State.make [| 7 |] in
  let m = ref M.empty in
  for _ = 1 to 60_000 do
    let k = Random.State.int st 1_000_000 in
    m := M.add k (float_of_int k) !m
  done;
  let s = ref 0.0 in
  for _ = 1 to 60_000 do
    match M.find_opt (Random.State.int st 1_000_000) !m with
    | Some v -> s := !s +. v
    | None -> ()
  done;
  !s

(* Host ms of one run of the reference. *)
let time_ms () =
  let t0 = Meter.now_ns () in
  ignore (Sys.opaque_identity (once ()));
  Meter.since_s t0 *. 1e3

(* The reference's fastest time on a quiet development host. Timings are
   reported scaled to a host on which the reference takes this long. *)
let nominal_ms = 45.0
