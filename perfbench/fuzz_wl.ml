(* Workload [fuzz]: the first scenarios of the CI [check] stream
   ([Fuzz.generate]), then [Runner.run] on each. One operation is one
   scenario.

   Scenario cost is heavy-tailed: a few 8-rank, long-running scenarios
   take most of the time, and their cost scatters widely even at equal
   parameters. Drawing a fresh set of a few hundred scenarios per seed
   moved total time by ~15% and the p95 by ~30% from seed to seed. So the
   scenario shapes are a fixed draw ([shapes_seed], the CI seed) and
   [--seed] re-seeds each scenario's simulation (the [seed] field, which
   seeds the simulation and nothing else): fault timing, jitter and
   traffic matrices change with the seed, the fleet shapes do not. *)

open Ninja_engine
open Ninja_check
open Meter

let scenarios ~tiny = if tiny then 6 else 240

let shapes_seed = 1L

let setup ~tiny ~seed =
  let prng = Prng.create ~seed in
  List.map
    (fun (sc : Scenario.t) -> { sc with Scenario.seed = Prng.next_int64 prng })
    (Fuzz.generate ~seed:shapes_seed ~n:(scenarios ~tiny))

(* The scenario classes the per-class host time is split by. *)
let classes (sc : Scenario.t) =
  [
    (match sc.Scenario.mode with
    | Ninja_vmm.Migration.Precopy -> "precopy"
    | Ninja_vmm.Migration.Postcopy -> "postcopy");
    (match sc.Scenario.topo with None -> "spec" | Some _ -> "topology");
    (if sc.Scenario.faults = [] then "nofaults" else "faults");
  ]

let class_names = [ "precopy"; "postcopy"; "spec"; "topology"; "faults"; "nofaults" ]

let outcome_name = function
  | Runner.Passed -> "passed"
  | Runner.Violated vs -> Printf.sprintf "violated:%d" (List.length vs)
  | Runner.Crashed msg -> "crashed:" ^ msg

let pass tr scenarios =
  let digest = Buffer.create 8192 in
  let op_ms = ref [] and failed = ref 0 and errors = ref [] in
  let by_class = Hashtbl.create 8 in
  let counts = Bus_count.create () in
  let engine_events = ref 0 and checker_events = ref 0 in
  let g0 = gc_now () in
  let t0 = now_ns () in
  span tr ~cat:"pass" "fuzz" (fun parent ->
      List.iteri
        (fun i sc ->
          let cluster = ref None in
          (* Traced passes join the bus before the checker and count what
             crosses it; untraced passes run the scenario untouched. *)
          let attach =
            match tr with
            | None -> None
            | Some _ ->
              Some
                (fun c ->
                  cluster := Some c;
                  ignore
                    (Probe.attach (Ninja_hardware.Cluster.probes c)
                       (Bus_count.on_event counts (Ninja_hardware.Cluster.sim c))))
          in
          let r, s =
            timed (fun () ->
                span tr ~parent ~cat:"scenario" (Printf.sprintf "scenario-%d" i) (fun _ ->
                    Runner.run ?attach sc))
          in
          let ms = s *. 1e3 in
          op_ms := ms :: !op_ms;
          List.iter
            (fun c ->
              let n, total = Option.value (Hashtbl.find_opt by_class c) ~default:(0, 0.0) in
              Hashtbl.replace by_class c (n + 1, total +. ms))
            (classes sc);
          Option.iter
            (fun c ->
              engine_events :=
                !engine_events + Sim.events_processed (Ninja_hardware.Cluster.sim c))
            !cluster;
          checker_events := !checker_events + r.Runner.events;
          Printf.bprintf digest "%d %s %h %d\n" i (outcome_name r.Runner.outcome)
            r.Runner.sim_end r.Runner.events;
          if Runner.failed r then begin
            incr failed;
            errors :=
              Format.asprintf "scenario %d: %a" i Runner.pp_result r :: !errors
          end)
        scenarios);
  let wall_s = since_s t0 in
  let words = allocated_words (gc_diff g0 (gc_now ())) in
  let n = float_of_int (List.length scenarios) in
  let layers =
    if tr = None then []
    else begin
      let events = float_of_int !engine_events in
      [
        ("engine.events", events);
        ("engine.events_per_s", events /. wall_s);
        ("engine.words_per_event", if events > 0.0 then words /. events else 0.0);
        ("fuzz.events_per_scenario", events /. n);
        ("fuzz.probe_per_scenario", float_of_int !checker_events /. n);
      ]
      @ Bus_count.layers counts
      @ List.concat_map
          (fun c ->
            let k, total = Option.value (Hashtbl.find_opt by_class c) ~default:(0, 0.0) in
            [
              ("fuzz.ms." ^ c, if k = 0 then 0.0 else total /. float_of_int k);
              ("fuzz.n." ^ c, float_of_int k);
            ])
          class_names
    end
  in
  {
    wall_s;
    op_ms = List.rev !op_ms;
    failed = !failed;
    output = Buffer.contents digest;
    errors = List.rev !errors;
    layers;
  }
