(* Bechamel micro-benchmarks of the simulator's hot paths.

     dune exec bench/main.exe

   The paper's tables and figures regenerate with `ninja_sim run all
   [--full] [-j N]` (or `ninja_sim run <experiment>`); the repository
   benchmark, with per-experiment host time as `exp.<name>.wall_s`, is
   `python3 perfbench/run.py`. *)

open Bechamel
open Toolkit
open Ninja_experiments
open Ninja_engine

(* One Test per reproduced table/figure (a single representative
   configuration each, so the cost of regenerating a result is itself
   tracked), plus the simulator's hot paths. *)

let bench_heap =
  Test.make ~name:"engine/event-heap push+pop x1k"
    (Staged.stage @@ fun () ->
    let h = Pheap.create () in
    for i = 0 to 999 do
      Pheap.add h ~key:(Int64.of_int (i * 7919 mod 1000)) ~seq:i i
    done;
    while not (Pheap.is_empty h) do
      ignore (Pheap.pop h)
    done)

let bench_fibers =
  Test.make ~name:"engine/spawn+run 100 sleeping fibers"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    for i = 1 to 100 do
      Sim.spawn sim (fun () -> Sim.sleep (Time.ms i))
    done;
    Sim.run sim)

let bench_fabric =
  Test.make ~name:"flownet/max-min re-rate, 32 flows"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    let fab = Ninja_flownet.Fabric.create sim in
    let links =
      Array.init 8 (fun i ->
          Ninja_flownet.Fabric.add_link fab ~name:(string_of_int i) ~capacity:1e9)
    in
    for i = 0 to 31 do
      Sim.spawn sim (fun () ->
          Ninja_flownet.Fabric.transfer fab
            ~route:[ links.(i mod 8); links.((i + 3) mod 8) ]
            ~bytes:1e8)
    done;
    Sim.run sim)

let bench_collective =
  Test.make ~name:"mpi/allreduce 100MB, 8 ranks"
    (Staged.stage @@ fun () ->
    let sim = Sim.create () in
    let cluster = Ninja_hardware.Cluster.create sim ~spec:Ninja_hardware.Spec.agc_ib16 () in
    let members =
      List.init 4 (fun i ->
          let host = Ninja_hardware.Cluster.node cluster i in
          let vm =
            Ninja_vmm.Vm.create cluster
              ~name:(Printf.sprintf "b%d" i)
              ~host ~vcpus:8 ~mem_bytes:21.5e9 ()
          in
          Ninja_vmm.Vm.attach_device vm
            (Ninja_hardware.Device.make ~tag:"vf0" ~pci_addr:"04:00.0"
               Ninja_hardware.Device.Ib_hca);
          (vm, Ninja_guestos.Guest.boot vm))
    in
    let job =
      Ninja_mpi.Runtime.mpirun cluster ~members ~procs_per_vm:2 (fun ctx ->
          Ninja_mpi.Mpi.allreduce ctx ~bytes:1e8)
    in
    Sim.spawn sim (fun () -> Ninja_mpi.Runtime.wait job);
    Sim.run sim)

let bench_table2 =
  Test.make ~name:"experiment/table2 one combo (IB->IB, 8 VMs)"
    (Staged.stage @@ fun () ->
    let hotplug = ref 0.0 and linkup = ref 0.0 in
    Exp_table2.measure Run_ctx.default Paper_data.Ib_to_ib ~hotplug ~linkup)

let bench_fig6 =
  Test.make ~name:"experiment/fig6 one point (2GB memtest, 8 VMs)"
    (Staged.stage @@ fun () -> ignore (Exp_fig6.measure Run_ctx.default ~size_gb:2.0))

let bench_fig7 =
  Test.make ~name:"experiment/fig7 one kernel (CG, quick)"
    (Staged.stage @@ fun () -> ignore (Exp_fig7.measure Run_ctx.default Ninja_workloads.Npb.CG))

let bench_fig8 =
  Test.make ~name:"experiment/fig8 series (1 proc/VM, quick)"
    (Staged.stage @@ fun () -> ignore (Exp_fig8.measure Run_ctx.default ~procs_per_vm:1))

let micro_tests =
  Test.make_grouped ~name:"ninja" ~fmt:"%s %s"
    [
      bench_heap;
      bench_fibers;
      bench_fabric;
      bench_collective;
      bench_table2;
      bench_fig6;
      bench_fig7;
      bench_fig8;
    ]

let run_micro () =
  print_endline "== Bechamel micro-benchmarks (wall-clock cost of the simulator) ==";
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Bechamel.Time.second 1.0) ~stabilize:false () in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances micro_tests in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) ols [] in
  let table =
    Ninja_metrics.Table.create ~title:"simulator hot paths (OLS estimate per run)"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun (name, o) ->
      let time_ns =
        match Analyze.OLS.estimates o with Some (e :: _) -> e | Some [] | None -> Float.nan
      in
      let r2 = match Analyze.OLS.r_square o with Some r -> r | None -> Float.nan in
      Ninja_metrics.Table.add_row table
        [
          name;
          (if Float.is_nan time_ns then "n/a"
           else if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
           else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
           else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
           else Printf.sprintf "%.0f ns" time_ns);
          Printf.sprintf "%.4f" r2;
        ])
    (List.sort compare rows);
  Ninja_metrics.Table.print table

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> run_micro ()
  | _ ->
    prerr_endline
      "usage: main.exe (no arguments)\n\
       regenerate the paper with: ninja_sim run all [--full] [-j N]";
    exit 2
