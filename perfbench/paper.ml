(* Accuracy guard: mean absolute relative error of the simulated Table II
   and Fig. 6 against the paper's published values ([Paper_data]),
   skipping zero references. The model is validated only against these
   two; the number must stay put under a speed-up, it is not a target. *)

open Ninja_experiments

let rel_err ~measured ~reference = Float.abs (measured -. reference) /. Float.abs reference

let collect pairs =
  List.filter_map
    (fun (measured, reference) ->
      if reference = 0.0 then None else Some (rel_err ~measured ~reference))
    pairs

let table2 ctx =
  collect
    (List.concat_map
       (fun combo ->
         let hotplug = ref 0.0 and linkup = ref 0.0 in
         Exp_table2.measure ctx combo ~hotplug ~linkup;
         [
           (!hotplug, Paper_data.table2_hotplug combo);
           (!linkup, Paper_data.table2_linkup combo);
         ])
       Paper_data.combos)

let fig6 ctx =
  collect
    (List.concat
       (List.map2
          (fun size_gb (mig, (hot, link)) ->
            let r = Exp_fig6.measure ctx ~size_gb in
            [
              (r.Exp_fig6.migration, mig);
              (r.Exp_fig6.hotplug, hot);
              (r.Exp_fig6.linkup, link);
            ])
          Paper_data.fig6_sizes_gb
          (List.combine Paper_data.fig6_migration
             (List.combine Paper_data.fig6_hotplug Paper_data.fig6_linkup))))

let pct errs = 100.0 *. Meter.mean errs

(* (table2 %, fig6 %, pooled %) for one seed. *)
let errors ~seed =
  let ctx = Ninja_engine.Run_ctx.make ~seed () in
  let t2 = table2 ctx and f6 = fig6 ctx in
  (pct t2, pct f6, pct (t2 @ f6))
