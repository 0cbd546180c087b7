open Ninja_engine

type model = { sleep_watts : float; idle_watts : float; dynamic_watts : float }

let m610 = { sleep_watts = 15.0; idle_watts = 160.0; dynamic_watts = 110.0 }

type meter = {
  model : model;
  nodes : Node.t list;
  joules : (int, float) Hashtbl.t;
  mutable n_samples : int;
}

let node_power model ~awake node =
  if not (awake node) then model.sleep_watts
  else model.idle_watts +. (model.dynamic_watts *. Ps_resource.utilization node.Node.cpu)

let default_awake (n : Node.t) = Ps_resource.utilization n.Node.cpu > 0.0

let measure sim ?(model = m610) ?(interval = Time.sec 1) ?(awake = default_awake) ~until nodes =
  let meter = { model; nodes; joules = Hashtbl.create 16; n_samples = 0 } in
  List.iter (fun (n : Node.t) -> Hashtbl.replace meter.joules n.Node.id 0.0) nodes;
  let dt = Time.to_sec_f interval in
  (* A tick at or before the job's end counts even when the job finished
     earlier in the same instant; the first later tick stops the meter. *)
  let rec tick () =
    Sim.sleep interval;
    match until () with
    | Some t when Time.(Sim.now sim > t) -> ()
    | Some _ | None ->
      meter.n_samples <- meter.n_samples + 1;
      List.iter
        (fun (n : Node.t) ->
          let j = Hashtbl.find meter.joules n.Node.id in
          Hashtbl.replace meter.joules n.Node.id (j +. (node_power model ~awake n *. dt)))
        nodes;
      tick ()
  in
  Sim.spawn sim ~name:"power-meter" tick;
  meter

let per_node_joules meter =
  List.map (fun (n : Node.t) -> (n, Hashtbl.find meter.joules n.Node.id)) meter.nodes

let energy_joules meter = List.fold_left (fun acc (_, j) -> acc +. j) 0.0 (per_node_joules meter)

let samples meter = meter.n_samples
