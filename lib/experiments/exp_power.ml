open Ninja_engine
open Ninja_hardware
open Ninja_metrics
open Ninja_core
open Ninja_mpi
open Exp_common

type row = { label : string; duration : float; energy_kj : float }

(* Long enough that consolidation's migration cost amortises for the
   under-utilised job; quick mode shrinks everything. *)
let scale = function Quick -> 0.3 | Full -> 1.0

let iterations ~mode ~busy =
  int_of_float (float_of_int (if busy then 40 else 200) *. scale mode)

(* [busy]: a CPU-saturating kernel. Otherwise an LHC-style job that uses
   ~15% of a core (paper §II-A quotes 70% of grid jobs below 14%). *)
let step ~busy ctx _i =
  if busy then Mpi.compute ctx ~seconds:2.0
  else begin
    Mpi.compute ctx ~seconds:0.3;
    Sim.sleep (Time.of_sec_f 1.7)
  end;
  Mpi.allreduce ctx ~bytes:1.0e6;
  Mpi.checkpoint_point ctx

(* One deterministic run under a power meter that integrates every
   node's draw up to the job's completion. *)
let measure rc ~consolidated ~busy =
  let env = fresh ~spec:Spec.agc rc in
  let sim = env.sim and cluster = env.cluster in
  let ib = hosts cluster ~prefix:"ib" ~first:0 ~count:4 in
  let eth = hosts cluster ~prefix:"eth" ~first:0 ~count:2 in
  let ninja = Ninja.setup cluster ~hosts:ib () in
  let finished_at = ref None in
  ignore
    (Ninja.launch ninja ~procs_per_vm:8 (fun ctx ->
         for i = 1 to iterations ~mode:rc.Run_ctx.mode ~busy do
           step ~busy ctx i
         done;
         if Mpi.rank ctx = 0 then finished_at := Some (Sim.now sim)));
  if consolidated then
    Sim.spawn sim (fun () ->
        Sim.sleep (Time.sec 5);
        let plan vm =
          match Ninja.vms ninja |> List.mapi (fun i v -> (v, List.nth eth (i / 2))) with
          | l -> List.assq vm l
        in
        ignore (Ninja.migrate ninja ~plan ()));
  (* A host can only be powered off when no VM lives on it. *)
  let awake node =
    List.exists (fun vm -> (Ninja_vmm.Vm.host vm).Node.id = node.Node.id) (Ninja.vms ninja)
  in
  let meter =
    Power.measure sim ~awake ~until:(fun () -> !finished_at) (Cluster.nodes cluster)
  in
  Sim.spawn sim (fun () -> Ninja.wait_job ninja);
  run_to_completion env;
  {
    label =
      Printf.sprintf "%s, %s"
        (if busy then "CPU-bound" else "under-utilised (~15%)")
        (if consolidated then "consolidated 2 hosts" else "spread 4 hosts");
    duration = sec (Option.get !finished_at);
    energy_kj = Power.energy_joules meter /. 1e3;
  }

let run rc =
  let table =
    Table.create
      ~title:
        "Power-aware consolidation (section VII future work): 4 VMs, 32 ranks; idle hosts sleep"
      ~columns:[ "Case"; "job time [s]"; "energy [kJ]" ]
  in
  sweep rc
    ~f:(fun rc (busy, consolidated) -> measure rc ~consolidated ~busy)
    [ (false, false); (false, true); (true, false); (true, true) ]
  |> List.iter (fun r ->
         Table.add_row table
           [ r.label; Printf.sprintf "%.1f" r.duration; Printf.sprintf "%.1f" r.energy_kj ]);
  [ table ]
