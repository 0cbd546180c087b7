(* Workload [serve-soak]: one long control-plane service run, built from
   public calls the way [ninja_sim serve] builds it — a leaf-spine
   datacenter with skewed tenant traffic, learned-matrix auto-swap fed by
   a flow monitor, the invariant checker, and an open-loop Poisson request
   stream. The benchmark advances the simulation 15 simulated seconds at
   a time; one operation is one such window. One simulated hour gives 240
   windows, enough for ten beyond the p95, and a pass short enough that a
   run makes dozens of passes. *)

open Ninja_engine
open Ninja_hardware
open Ninja_controlplane
open Ninja_telemetry
open Meter

let topology = "leaf-spine:pods=2,racks=2,hosts=4,ib-pods=1"

let traffic = "skewed:elephants=2,factor=16"

let rate = 0.2

let tenants = [ ("t0", 3.0); ("t1", 2.0); ("t2", 1.0) ]

let vms_per_tenant = 2

let window_s = 15

let windows ~tiny = if tiny then 10 else 240

(* Host-time stamps taken by the subscribers a traced run puts on the bus
   around the flow monitor and the checker: the gap between two stamps
   within one event is the self time of the subscriber between them. *)
type stamps = {
  mutable before_fm : int64;
  mutable before_ck : int64;
  mutable flowmon_ns : int64;
  mutable checker_ns : int64;
  counts : Bus_count.t;
}

type input = {
  env : Ninja_experiments.Exp_common.env;
  svc : Service.t;
  fm : Flowmon.t;
  checker : Ninja_check.Checker.t;
  stamps : stamps option;
  windows : int;
}

let setup ~tiny ~traced ~seed =
  let windows = windows ~tiny in
  let horizon = float_of_int (windows * window_s) in
  let ctx = Run_ctx.make ~seed ~topology ~label:"serve" () in
  let env = Ninja_experiments.Exp_common.fresh ctx in
  let cluster = env.Ninja_experiments.Exp_common.cluster in
  let pattern =
    match Ninja_workloads.Traffic.of_string traffic with Ok p -> p | Error e -> failwith e
  in
  let specs =
    Service.boot_tenants ~traffic:pattern cluster ~tenants ~vms_per_tenant
      ~mem_bytes:(Units.gb 8.0)
  in
  (* The service prices swaps against the monitor's estimate, and the
     monitor reports into the service's registry: tie the knot through a
     ref, as the CLI does. *)
  let learned = ref (fun () -> []) in
  let config =
    {
      Service.default_config with
      auto_swap = Some Service.Learned;
      learned_traffic = Some (fun () -> !learned ());
    }
  in
  let svc = Service.create cluster ~config ~tenants:specs () in
  let probes = Cluster.probes cluster in
  let stamps =
    if not traced then None
    else
      Some
        {
          before_fm = 0L;
          before_ck = 0L;
          flowmon_ns = 0L;
          checker_ns = 0L;
          counts = Bus_count.create ();
        }
  in
  Option.iter
    (fun st -> ignore (Probe.attach probes (fun _ -> st.before_fm <- now_ns ())))
    stamps;
  let fconfig = { Flowmon.default_config with Flowmon.snapshot_every = 0.0 } in
  let fm =
    Flowmon.create ~config:fconfig ~registry:(Service.metrics svc) cluster
      ~traffic:(List.concat_map (fun (ts : Service.tenant_spec) -> ts.Service.traffic) specs)
  in
  (learned :=
     fun () ->
       if Flowmon.observed_window fm <= 0.0 then []
       else
         Ninja_workloads.Traffic.of_observations ~sample_rate:fconfig.Flowmon.sample_rate
           ~pkt_bytes:fconfig.Flowmon.pkt_bytes ~window:(Flowmon.observed_window fm)
           (Flowmon.samples fm));
  Flowmon.start fm ~horizon;
  Option.iter
    (fun st ->
      ignore
        (Probe.attach probes (fun _ ->
             let t = now_ns () in
             st.flowmon_ns <- Int64.add st.flowmon_ns (Int64.sub t st.before_fm);
             st.before_ck <- t)))
    stamps;
  let checker = Ninja_check.Checker.install cluster ~vms:(Service.vms svc) in
  Option.iter
    (fun st ->
      let sim = Cluster.sim cluster in
      ignore
        (Probe.attach probes (fun e ->
             st.checker_ns <- Int64.add st.checker_ns (Int64.sub (now_ns ()) st.before_ck);
             Bus_count.on_event st.counts sim e)))
    stamps;
  Service.open_loop svc ~process:(Ninja_workloads.Arrivals.Poisson { rate }) ~horizon;
  { env; svc; fm; checker; stamps; windows }

let ns_to_s ns = Int64.to_float ns /. 1e9

let pass tr { env; svc; fm; checker; stamps; windows } =
  let sim = env.Ninja_experiments.Exp_common.sim in
  let fabric = Cluster.fabric env.Ninja_experiments.Exp_common.cluster in
  let op_ms = ref [] and failed = ref 0 and errors = ref [] in
  let sweeps = ref [] and flows_max = ref 0 in
  let violations () = List.length (Ninja_check.Checker.violations checker) in
  let g0 = gc_now () in
  let t0 = now_ns () in
  let finish_s =
    span tr ~cat:"pass" "serve-soak" (fun parent ->
        for w = 1 to windows do
          let before = violations () in
          let (), s =
            timed (fun () ->
                span tr ~parent ~cat:"window" (Printf.sprintf "window-%d" w) (fun _ ->
                    Sim.run_until sim (Time.sec (w * window_s))))
          in
          op_ms := (s *. 1e3) :: !op_ms;
          if violations () > before then incr failed;
          (* Traced runs time one conservation-style sweep of every link,
             the loop the checker runs per event, at each window end. *)
          if tr <> None then begin
            let (), sw =
              timed (fun () ->
                  List.iter
                    (fun l -> ignore (Ninja_flownet.Fabric.link_utilization fabric l))
                    (Ninja_flownet.Fabric.links fabric))
            in
            sweeps := (sw *. 1e6) :: !sweeps;
            flows_max := max !flows_max (Ninja_flownet.Fabric.active_flows fabric)
          end
        done;
        (* Arrivals stop at the horizon; drain what is still queued or in
           flight so every request reaches a terminal outcome. *)
        span tr ~parent ~cat:"drain" "drain" (fun _ ->
            try Sim.run sim
            with Sim.Deadlock stuck ->
              errors := ("deadlock: " ^ String.concat ", " stuck) :: !errors);
        snd
          (timed (fun () ->
               span tr ~parent ~cat:"checker" "check_finish" (fun _ ->
                   Ninja_check.Checker.check_finish checker))))
  in
  let wall_s = since_s t0 in
  let words = allocated_words (gc_diff g0 (gc_now ())) in
  Ninja_check.Checker.detach checker;
  Flowmon.detach fm;
  (match Service.accounting svc with
  | Ok () -> ()
  | Error msg -> errors := ("accounting: " ^ msg) :: !errors);
  List.iter
    (fun v ->
      errors := Format.asprintf "%a" Ninja_check.Checker.pp_violation v :: !errors)
    (Ninja_check.Checker.violations checker);
  if !errors <> [] && !failed = 0 then failed := 1;
  let digest = Buffer.create 65536 in
  List.iter (fun line -> Buffer.add_string digest (line ^ "\n")) (Service.log svc);
  Buffer.add_string digest
    (Format.asprintf "%a" Ninja_metrics.Table.pp (Metrics.to_table (Service.metrics svc)));
  let op_ms = List.rev !op_ms in
  let layers =
    match stamps with
    | None -> []
    | Some st ->
      let events = float_of_int (Sim.events_processed sim) in
      let window_s = sum op_ms /. 1e3 in
      let checker_s = ns_to_s st.checker_ns and flowmon_s = ns_to_s st.flowmon_ns in
      let decile first =
        let k = max 1 (windows / 10) in
        let a = Array.of_list op_ms in
        mean (List.init k (fun i -> a.(if first then i else windows - k + i)))
      in
      let count name = Service.count svc name in
      [
        ("engine.events", events);
        ("engine.events_per_s", events /. wall_s);
        ("engine.words_per_event", if events > 0.0 then words /. events else 0.0);
        ("fabric.links_end", float_of_int (List.length (Ninja_flownet.Fabric.links fabric)));
        ("fabric.active_flows_max", float_of_int !flows_max);
        ("fabric.sweep_us", mean !sweeps);
      ]
      @ Bus_count.layers st.counts
      @ [
          ("checker.s", checker_s);
          ( "checker.us_per_event",
            let n = Ninja_check.Checker.events_seen checker in
            if n = 0 then 0.0 else checker_s *. 1e6 /. float_of_int n );
          ("checker.share", if window_s > 0.0 then checker_s /. window_s else 0.0);
          ("checker.finish_ms", finish_s *. 1e3);
          ("flowmon.s", flowmon_s);
          ("flowmon.ticks", float_of_int (Flowmon.ticks fm));
          ("serve.self_s", window_s -. checker_s -. flowmon_s);
          ("serve.window_ms.first_decile", decile true);
          ("serve.window_ms.last_decile", decile false);
          ("ctl.submitted", float_of_int (Service.submitted svc));
          ("ctl.completed", count "ctl.requests.completed");
          ("ctl.rejected", count "ctl.requests.rejected");
          ("ctl.dropped", count "ctl.requests.dropped");
          ("ctl.deferred", count "ctl.requests.deferred");
          ("ctl.swap.proposed", count "ctl.swap.proposed");
          ("ctl.swap.noop", count "ctl.swap.noop");
        ]
  in
  {
    wall_s;
    op_ms;
    failed = !failed;
    output = Buffer.contents digest;
    errors = List.rev !errors;
    layers;
  }
