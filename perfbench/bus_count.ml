(* A probe-bus subscriber for traced passes: counts events by topic and
   records the most fibers alive at any event. *)

open Ninja_engine

(* The topics counted one by one; the rest land in [probe.other]. *)
let topics = [ "ctl"; "span"; "migration"; "vm"; "fence"; "qmp"; "plan"; "fault" ]

type t = {
  by_topic : (string, int ref) Hashtbl.t;
  mutable events : int;
  mutable live_fibers_max : int;
}

let create () = { by_topic = Hashtbl.create 16; events = 0; live_fibers_max = 0 }

let on_event t sim (e : Probe.event) =
  t.events <- t.events + 1;
  let key = if List.mem e.Probe.topic topics then e.Probe.topic else "other" in
  (match Hashtbl.find_opt t.by_topic key with
  | Some r -> incr r
  | None -> Hashtbl.add t.by_topic key (ref 1));
  t.live_fibers_max <- max t.live_fibers_max (Sim.live_fibers sim)

let layers t =
  ("probe.events", float_of_int t.events)
  :: ("engine.live_fibers_max", float_of_int t.live_fibers_max)
  :: List.map
       (fun topic ->
         ( "probe." ^ topic,
           float_of_int
             (match Hashtbl.find_opt t.by_topic topic with Some r -> !r | None -> 0) ))
       (topics @ [ "other" ])
