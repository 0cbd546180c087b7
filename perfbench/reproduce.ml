(* Workload [reproduce]: every registry experiment in quick mode, through
   [Registry.run_entry] — what a user runs to regenerate the paper. The
   one operation is the whole regeneration: the 15 experiments are too
   uneven for percentiles (the median one is a ~70 ms experiment whose
   work depends on the seed), so their times are per-layer metrics. A
   pass reports each experiment's time as a separate piece, so a run
   counts each experiment at its fastest over the passes. *)

open Ninja_engine
open Ninja_experiments
open Meter

type input = { ctx : Run_ctx.t; entries : Registry.entry list }

(* The cheap entries the self-test runs instead of the whole registry. *)
let tiny_entries = [ "table1"; "table2"; "fig6"; "ablation-rdma"; "placement" ]

(* Set-up: the run context, the registry lookup, and one default AGC
   cluster — the fixed cost every experiment point pays first. *)
let setup ~tiny ~seed =
  let ctx = Run_ctx.make ~seed ~mode:Run_ctx.Quick () in
  let entries =
    if tiny then List.filter_map Registry.find tiny_entries else Registry.all
  in
  ignore (Exp_common.fresh ctx);
  { ctx; entries }

let pass tr { ctx; entries } =
  let digest = Buffer.create 65536 in
  let errors = ref [] and layers = ref [] and exp_ms = ref [] in
  let t0 = now_ns () in
  span tr ~cat:"pass" "reproduce" (fun parent ->
      List.iter
        (fun (e : Registry.entry) ->
          let g0 = gc_now () in
          let tables, s =
            timed (fun () ->
                span tr ~parent ~cat:"experiment" e.Registry.name (fun _ ->
                    try Ok (Registry.run_entry ctx e) with exn -> Error (Printexc.to_string exn)))
          in
          let words = allocated_words (gc_diff g0 (gc_now ())) in
          exp_ms := (s *. 1e3) :: !exp_ms;
          layers :=
            (Printf.sprintf "exp.%s.mwords" e.Registry.name, words /. 1e6)
            :: (Printf.sprintf "exp.%s.wall_s" e.Registry.name, s)
            :: !layers;
          Buffer.add_string digest ("== " ^ e.Registry.name ^ "\n");
          match tables with
          | Ok (_ :: _ as tables) ->
            List.iter
              (fun t -> Buffer.add_string digest (Ninja_metrics.Table.to_csv t))
              tables
          | Ok [] -> errors := (e.Registry.name ^ ": no tables") :: !errors
          | Error msg -> errors := (e.Registry.name ^ ": " ^ msg) :: !errors)
        entries);
  let wall_s = since_s t0 in
  {
    wall_s;
    op_ms = List.rev !exp_ms;
    failed = (if !errors = [] then 0 else 1);
    output = Buffer.contents digest;
    errors = List.rev !errors;
    layers = List.rev !layers;
  }
